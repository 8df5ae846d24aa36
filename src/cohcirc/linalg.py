"""Dense complex linear algebra on matrices and starred amplitude vectors.

Matrix functions take anything ``np.asarray`` can turn into a 2-D complex
array, vector functions anything it can turn into a 1-D one, and none
mutates its inputs.  ``apply_matrix`` is the dense form of the linear map
on starred amplitudes (the convention is stated in
:mod:`cohcirc.synthesis`).  Amplitude vectors are never normalized: the
conserved quantity under unitary circuits is the mean photon number
sum |a_i|^2.  Decompositions delegate to LAPACK through numpy; the
contract is the reconstruction tolerance, not a specific algorithm.
Every tolerance passes :func:`check_tol`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonFiniteError

UNITARY_TOL = 1e-10
# The largest tolerance any check accepts.  Above it the tolerance, not the
# input, decides the verdict: at 0.5 ``synth`` took [[1, 0.3], [0, 1]]
# (largest singular value 1.16) for a unitary and realized it as the identity.
MAX_TOL = 0.25


def check_tol(tol: float) -> float:
    """Return ``tol`` if it lies in [0, MAX_TOL]; raise ValueError otherwise (nan too)."""
    if not 0 <= tol <= MAX_TOL:
        raise ValueError(f"tolerance must lie in [0, {MAX_TOL:g}], got {tol!r}")
    return tol


def as_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a finite 2-D complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"matrix must be at least 1x1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix entries must be finite")
    return a


def as_amplitudes(a) -> np.ndarray:
    """Validate and return ``a`` as a finite 1-D complex array."""
    v = np.asarray(a, dtype=complex)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D amplitude vector, got ndim={v.ndim}")
    if not np.isfinite(v).all():
        raise NonFiniteError("amplitudes must be finite")
    return v


def _finite(what: str, op, *operands):
    """``op(*operands)`` on finite operands, without numpy's overflow
    warnings; a result that overflows raises :class:`NonFiniteError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = op(*operands)
    if not np.isfinite(out).all():
        raise NonFiniteError(f"{what} overflow")
    return out


def apply_matrix(m, amplitudes) -> np.ndarray:
    """b* = M a* for a matrix already expressed on starred amplitudes."""
    mat = as_matrix(m)
    vec = as_amplitudes(amplitudes)
    if mat.shape[1] != vec.shape[0]:
        raise DimensionError(
            f"matrix has {mat.shape[1]} columns but the vector has width {vec.shape[0]}"
        )
    return _finite("propagated amplitudes", np.matmul, mat, vec)


def mean_photon_number(amplitudes) -> float:
    """Total mean photon number sum |a_i|^2."""
    vec = as_amplitudes(amplitudes)
    return float(_finite("mean photon number", lambda: np.sum(np.abs(vec) ** 2)))


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


def max_abs(m) -> float:
    """Largest entry magnitude (the max-norm used in all tolerances)."""
    return float(np.max(np.abs(m)))


def unitarity_defect(m) -> float:
    """max |M M^dag - I| for a square matrix; inf or nan if the product overflows."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"unitarity is defined for square matrices, got {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return max_abs(a @ a.conj().T - np.eye(a.shape[0]))


def is_unitary(m, tol: float = UNITARY_TOL) -> bool:
    return unitarity_defect(m) <= check_tol(tol)


def spectral_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False)[0])


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
