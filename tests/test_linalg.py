import numpy as np
import pytest

from cohcirc import is_unitary, psd_sqrt, random_unitary, spectral_norm
from cohcirc.errors import DimensionError, NotPSDError
from cohcirc.linalg import max_abs, unitarity_defect


def comparison_matrix(c: float) -> np.ndarray:
    return c * np.array([[0, 0, 0], [1, -1, 0], [1, 0, -1]], dtype=complex)


def test_is_unitary_identity():
    assert is_unitary(np.eye(4), 1e-12)


def test_is_unitary_rejects_contraction():
    assert not is_unitary(np.diag([1.0, 0.5]), 1e-10)


def test_is_unitary_requires_square():
    with pytest.raises(DimensionError):
        is_unitary(np.zeros((2, 3)), 1e-10)


def test_product_of_unitaries_is_unitary():
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = random_unitary(5, rng) @ random_unitary(5, rng)
        assert is_unitary(u, 1e-12)


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(7)) == pytest.approx(1.0)


def test_spectral_norm_comparison_at_max_scale():
    assert spectral_norm(comparison_matrix(1 / np.sqrt(3))) == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_rank_one_example():
    # K K^dag = [[2,2],[2,2]] has eigenvalues 4 and 0.
    assert spectral_norm(np.array([[-1, 1], [-1, 1]])) == pytest.approx(2.0)


def test_spectral_norm_equals_max_singular_value():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    d = np.linalg.svd(m, compute_uv=False)
    assert spectral_norm(m) == max(d)


def test_psd_sqrt_zero():
    assert max_abs(psd_sqrt(np.zeros((3, 3)))) == 0.0


def test_psd_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]))


def test_psd_sqrt_squares_back():
    k = comparison_matrix(1 / np.sqrt(3))
    m = np.eye(3) - k @ k.conj().T
    root = psd_sqrt(m)
    assert max_abs(root @ root - m) <= 1e-11
    assert max_abs(root - root.conj().T) <= 1e-12


def test_psd_sqrt_roundtrip_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = psd_sqrt(a @ a.conj().T)
        assert max_abs(psd_sqrt(s @ s) - s) <= 1e-8


def test_psd_sqrt_rejects_negative_eigenvalue():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -1e-6]))


def test_psd_sqrt_rejects_non_hermitian():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_psd_sqrt_clips_tiny_negatives():
    root = psd_sqrt(np.diag([1.0, -1e-13]))
    assert np.allclose(root, np.diag([1.0, 0.0]))


def test_unitarity_defect_scale():
    u = random_unitary(6, np.random.default_rng(5))
    assert unitarity_defect(u) <= 1e-13
    assert unitarity_defect(1.001 * u) > 1e-10
