import math

import numpy as np
import pytest

from cohcirc import dilate, is_unitary, random_unitary, reck_decompose, spectral_norm
from cohcirc.errors import DimensionError
from cohcirc.linalg import MAX_TOL, as_matrix, check_tol, unitarity_defect


def comparison_matrix(c: float) -> np.ndarray:
    return c * np.array([[0, 0, 0], [1, -1, 0], [1, 0, -1]], dtype=complex)


def test_is_unitary_identity():
    assert is_unitary(np.eye(4), 1e-12)


def test_is_unitary_rejects_contraction():
    assert not is_unitary(np.diag([1.0, 0.5]), 1e-10)


def test_is_unitary_requires_square():
    with pytest.raises(DimensionError):
        is_unitary(np.zeros((2, 3)), 1e-10)


@pytest.mark.parametrize(
    "m, message",
    [
        (np.zeros(3), "expected a 2-D matrix, got ndim=1"),
        (np.zeros((0, 2)), "matrix must be at least 1x1, got shape (0, 2)"),
    ],
    ids=["vector", "empty"],
)
def test_as_matrix_rejects_bad_shapes(m, message):
    with pytest.raises(DimensionError) as caught:
        as_matrix(m)
    assert str(caught.value) == message


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


def test_unitarity_defect_scale():
    u = random_unitary(6, np.random.default_rng(5))
    assert unitarity_defect(u) <= 1e-13
    assert unitarity_defect(1.001 * u) > 1e-10


# One check bounds every tolerance: [0, MAX_TOL], both ends inclusive.


@pytest.mark.parametrize("tol", [0.0, MAX_TOL])
def test_every_tolerance_check_accepts_the_ends_of_the_range(tol):
    assert check_tol(tol) == tol
    assert is_unitary(np.eye(2), tol)
    assert reck_decompose(np.eye(2), tol).width == 2
    assert dilate([[1.0]], tol).shape == (2, 2)


@pytest.mark.parametrize(
    "tol", [math.nextafter(MAX_TOL, 1), math.nextafter(0.0, -1), math.nan, math.inf]
)
def test_every_tolerance_check_rejects_a_value_past_the_range(tol):
    message = rf"tolerance must lie in \[0, 0.25\], got {tol!r}"
    for check in (
        check_tol,
        lambda tol: is_unitary(np.eye(2), tol),
        lambda tol: reck_decompose(np.eye(2), tol),
        lambda tol: dilate([[1.0]], tol),
    ):
        with pytest.raises(ValueError, match=message):
            check(tol)
