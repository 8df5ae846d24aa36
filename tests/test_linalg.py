import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohcirc import (
    apply_matrix,
    beamsplitter_matrix,
    dilate,
    is_unitary,
    mean_photon_number,
    pad_vacuum,
    random_unitary,
    reck_decompose,
    spectral_norm,
)
from cohcirc.errors import DimensionError, NonFiniteError
from cohcirc.linalg import MAX_TOL, as_matrix, check_tol, unitarity_defect
from conftest import random_amplitudes, random_contraction


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


finite_complex = st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


def test_apply_matrix_fifty_fifty_splitter():
    alpha = 1.4 + 0.3j
    out = apply_matrix(beamsplitter_matrix(np.pi / 4, 0.0), [alpha, 0.0])
    assert np.allclose(out, [alpha / np.sqrt(2), 1j * alpha / np.sqrt(2)])


def test_apply_matrix_identity():
    vec = np.array([1.0 + 2j, -0.5j])
    assert np.array_equal(apply_matrix(np.eye(2), vec), vec)


def test_apply_matrix_equal_inputs_interfere():
    alpha = 0.9 - 1.1j
    out = apply_matrix(beamsplitter_matrix(np.pi / 4, 0.0), [alpha, alpha])
    expected = (1 + 1j) * alpha / np.sqrt(2)
    assert np.allclose(out, [expected, expected])
    assert mean_photon_number(out) == pytest.approx(2 * abs(alpha) ** 2)


def test_apply_matrix_dimension_mismatch():
    with pytest.raises(DimensionError):
        apply_matrix(np.eye(3), [1.0, 2.0])


def test_amplitudes_must_be_a_vector():
    with pytest.raises(DimensionError, match="^expected a 1-D amplitude vector, got ndim=2$"):
        apply_matrix(np.eye(2), [[1.0], [2.0]])


@given(scale=finite_complex)
def test_apply_matrix_is_linear(scale):
    m = np.array([[0.3 + 1j, -0.2], [0.5j, 1.1]])
    a = np.array([1.0 - 0.5j, 0.25j])
    b = np.array([-0.75, 2.0 + 2.0j])
    lhs = apply_matrix(m, a + scale * b)
    rhs = apply_matrix(m, a) + scale * apply_matrix(m, b)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + abs(scale))


def test_mean_photon_number_zero_vector():
    assert mean_photon_number(np.zeros(4)) == 0.0


def test_mean_photon_number_additive():
    alpha = np.sqrt(2)
    assert mean_photon_number([alpha, alpha]) == pytest.approx(4.0)


def test_photon_number_contracts_under_contractions():
    rng = np.random.default_rng(33)
    for _ in range(10):
        size = int(rng.integers(1, 7))
        k = random_contraction(rng, size, rng.random())
        vec = random_amplitudes(rng, size)
        assert mean_photon_number(apply_matrix(k, vec)) <= mean_photon_number(vec) + 1e-10


def test_pad_vacuum_appends_zeros():
    out = pad_vacuum([1.0 + 1j], 2)
    assert np.array_equal(out, [1.0 + 1j, 0.0])


def test_pad_vacuum_same_width_is_identity():
    vec = np.array([0.5j, 1.0])
    assert np.array_equal(pad_vacuum(vec, 2), vec)


def test_pad_vacuum_rejects_shrinking():
    with pytest.raises(DimensionError):
        pad_vacuum([1.0, 2.0], 1)


def test_non_finite_operands_raise_non_finite_error():
    with pytest.raises(NonFiniteError):
        apply_matrix(np.eye(2), [1.0, np.nan])
    with pytest.raises(NonFiniteError):
        apply_matrix([[1.0, np.inf], [0.0, 1.0]], [1.0, 0.0])


@pytest.mark.filterwarnings("error")
def test_overflowing_product_raises_non_finite_error():
    with pytest.raises(NonFiniteError, match="overflow"):
        apply_matrix([[1.0, 1.0], [0.0, 1.0]], [1.7e308, 1.7e308])
