"""Dense complex linear algebra used by the synthesis and protocol layers.

All functions take anything ``np.asarray`` can turn into a 2-D complex
array and never mutate their inputs.  Decompositions delegate to LAPACK
through numpy; the contract is the reconstruction tolerance, not a
specific algorithm.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonFiniteError

UNITARY_TOL = 1e-10


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
    return unitarity_defect(m) <= tol


def spectral_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False)[0])


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
