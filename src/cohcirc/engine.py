"""Coherent-state amplitude propagation.

State vectors hold starred amplitudes, the complex conjugates of the
physical coherent amplitudes; conjugate at the presentation boundary to
recover physical values.  Maps written for unstarred amplitudes must be
entrywise-conjugated before being handed to this module (if b* = M a*
then b = M* a).  Amplitude vectors are never normalized: the conserved
quantity under unitary circuits is the mean photon number sum |a_i|^2.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DimensionError, NonFiniteError
from .synthesis import Circuit, propagate


def as_amplitudes(a) -> np.ndarray:
    """Validate and return ``a`` as a finite 1-D complex array."""
    v = np.asarray(a, dtype=complex)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D amplitude vector, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteError("amplitudes must be finite")
    return v


def apply_matrix(m, amplitudes) -> np.ndarray:
    """b* = M a* for a matrix already expressed on starred amplitudes."""
    mat = linalg.as_matrix(m)
    vec = as_amplitudes(amplitudes)
    if mat.shape[1] != vec.shape[0]:
        raise DimensionError(
            f"matrix has {mat.shape[1]} columns but the vector has width {vec.shape[0]}"
        )
    return mat @ vec


def apply_circuit(circuit: Circuit, amplitudes) -> np.ndarray:
    """Layer-by-layer propagation; equals apply_matrix(compile(c), a)."""
    vec = as_amplitudes(amplitudes)
    if circuit.width != vec.shape[0]:
        raise DimensionError(
            f"circuit width {circuit.width} does not match vector width {vec.shape[0]}"
        )
    return propagate(circuit, vec)


def mean_photon_number(amplitudes) -> float:
    """Total mean photon number sum |a_i|^2."""
    vec = as_amplitudes(amplitudes)
    return float(np.sum(np.abs(vec) ** 2))


def pad_vacuum(amplitudes, new_width: int) -> np.ndarray:
    """Append dark (vacuum, zero-amplitude) ports up to ``new_width``."""
    vec = as_amplitudes(amplitudes)
    if new_width < vec.shape[0]:
        raise DimensionError(
            f"cannot shrink a width-{vec.shape[0]} vector to width {new_width}"
        )
    out = np.zeros(new_width, dtype=complex)
    out[: vec.shape[0]] = vec
    return out
