import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohcirc import (
    Circuit,
    PhaseShifter,
    apply_circuit,
    apply_matrix,
    beamsplitter_matrix,
    compile_circuit,
    dilate,
    mean_photon_number,
    pad_vacuum,
    random_unitary,
    reck_decompose,
)
from cohcirc.errors import DimensionError, NonFiniteError
from conftest import random_amplitudes, random_circuit, random_contraction

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


def test_apply_circuit_empty():
    vec = np.array([0.3, -1j])
    assert np.array_equal(apply_circuit(Circuit(2), vec), vec)


def test_apply_circuit_matches_decomposed_unitary():
    rng = np.random.default_rng(30)
    u = random_unitary(6, rng)
    circuit = reck_decompose(u)
    vec = random_amplitudes(rng, 6)
    assert np.max(np.abs(apply_circuit(circuit, vec) - apply_matrix(u, vec))) <= 1e-9


def test_apply_circuit_phase_shifter():
    circuit = Circuit(2, (PhaseShifter(0, 0.4),))
    out = apply_circuit(circuit, [1.0, 1.0])
    assert out[0] == pytest.approx(np.exp(-0.4j))
    assert out[1] == 1.0


def test_apply_circuit_agrees_with_compiled_matrix():
    rng = np.random.default_rng(31)
    for _ in range(5):
        circuit = random_circuit(rng, 8, 20)
        vec = random_amplitudes(rng, 8)
        direct = apply_circuit(circuit, vec)
        compiled = apply_matrix(compile_circuit(circuit), vec)
        assert np.max(np.abs(direct - compiled)) <= 1e-10


def test_apply_circuit_width_mismatch():
    with pytest.raises(DimensionError):
        apply_circuit(Circuit(3), [1.0, 2.0])


def test_mean_photon_number_zero_vector():
    assert mean_photon_number(np.zeros(4)) == 0.0


def test_mean_photon_number_additive():
    alpha = np.sqrt(2)
    assert mean_photon_number([alpha, alpha]) == pytest.approx(4.0)


def test_photon_number_invariant_under_unitary_circuits():
    rng = np.random.default_rng(32)
    for _ in range(10):
        width = int(rng.integers(2, 9))
        circuit = random_circuit(rng, width, 15)
        vec = random_amplitudes(rng, width)
        before = mean_photon_number(vec)
        after = mean_photon_number(apply_circuit(circuit, vec))
        assert abs(after - before) <= 1e-10 * (1 + before)


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


def test_pad_then_dilated_unitary_reproduces_contraction():
    rng = np.random.default_rng(34)
    k = random_contraction(rng, 3, 0.7)
    u = dilate(k)
    assert u.shape == (6, 6)  # width M + N
    vec = random_amplitudes(rng, 3)
    out = apply_matrix(u, pad_vacuum(vec, u.shape[0]))
    assert np.max(np.abs(out[:3] - apply_matrix(k, vec))) <= 1e-12


def test_non_finite_operands_raise_non_finite_error():
    with pytest.raises(NonFiniteError):
        apply_matrix(np.eye(2), [1.0, np.nan])
    with pytest.raises(NonFiniteError):
        apply_matrix([[1.0, np.inf], [0.0, 1.0]], [1.0, 0.0])


@pytest.mark.filterwarnings("error")
def test_overflowing_product_raises_non_finite_error():
    with pytest.raises(NonFiniteError, match="overflow"):
        apply_matrix([[1.0, 1.0], [0.0, 1.0]], [1.7e308, 1.7e308])
