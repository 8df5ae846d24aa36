"""Dense complex linear algebra used by the synthesis and protocol layers.

All functions take anything ``np.asarray`` can turn into a 2-D complex
array and never mutate their inputs.  Decompositions delegate to LAPACK
through numpy; the contract is the reconstruction tolerance, not a
specific algorithm.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonFiniteError, NotPSDError

UNITARY_TOL = 1e-10
PSD_CLIP_TOL = 1e-12


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
    """max |M M^dag - I| for a square matrix."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"unitarity is defined for square matrices, got {a.shape}")
    return max_abs(a @ a.conj().T - np.eye(a.shape[0]))


def is_unitary(m, tol: float = UNITARY_TOL) -> bool:
    return unitarity_defect(m) <= tol


def spectral_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False)[0])


def psd_sqrt(m, tol: float = PSD_CLIP_TOL) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-tol, 0) are clipped to zero; anything below -tol
    raises :class:`NotPSDError`, as does a non-Hermitian input.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"square matrix required, got shape {a.shape}")
    if max_abs(a - a.conj().T) > tol:
        raise NotPSDError("matrix is not Hermitian within tolerance")
    w, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    if w[0] < -tol:
        raise NotPSDError(f"eigenvalue {w[0]:.3e} is below -{tol:.1e}")
    w = np.clip(w, 0.0, None)
    root = (vecs * np.sqrt(w)) @ vecs.conj().T
    return (root + root.conj().T) / 2


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
