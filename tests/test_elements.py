import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohcirc import (
    Beamsplitter,
    Circuit,
    PhaseShifter,
    beamsplitter_matrix,
    compile_circuit,
    phaseshifter_factor,
)
from cohcirc.errors import DimensionError, NonFiniteError
from cohcirc.linalg import unitarity_defect

angles = st.floats(min_value=-4 * np.pi, max_value=4 * np.pi, allow_nan=False)


@pytest.mark.parametrize("phi", [0.0, 1.3, -np.pi])
def test_beamsplitter_transparent_at_theta_zero(phi):
    assert np.allclose(beamsplitter_matrix(0.0, phi), np.eye(2))


def test_beamsplitter_fifty_fifty():
    expected = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    assert np.allclose(beamsplitter_matrix(np.pi / 4, 0.0), expected)


def test_beamsplitter_reflectivity():
    u = beamsplitter_matrix(np.pi / 3, 0.7)
    assert abs(u[0, 1]) ** 2 == pytest.approx(3 / 4)


@given(theta=angles, phi=angles)
def test_beamsplitter_unitary(theta, phi):
    assert unitarity_defect(beamsplitter_matrix(theta, phi)) <= 1e-12


@given(theta=angles, phi=angles)
def test_beamsplitter_reflection_plus_transmission(theta, phi):
    u = beamsplitter_matrix(theta, phi)
    r = abs(u[1, 0]) ** 2
    t = abs(u[0, 0]) ** 2
    assert r + t == pytest.approx(1.0, abs=1e-12)
    assert r == pytest.approx(np.sin(theta) ** 2, abs=1e-12)


def test_beamsplitter_unitary_sweep():
    rng = np.random.default_rng(10)
    thetas = rng.uniform(-np.pi, np.pi, 10_000)
    phis = rng.uniform(-np.pi, np.pi, 10_000)
    worst = max(
        unitarity_defect(beamsplitter_matrix(t, p)) for t, p in zip(thetas, phis)
    )
    assert worst <= 1e-12


@pytest.mark.parametrize(
    "phi,expected", [(0.0, 1.0), (np.pi, -1.0), (np.pi / 2, -1j)]
)
def test_phaseshifter_factor(phi, expected):
    assert phaseshifter_factor(phi) == pytest.approx(expected)


def embedding(element, width):
    """The element's matrix on ``width`` modes: a one-element circuit, compiled."""
    return compile_circuit(Circuit(width, (element,)))


def test_embedding_phaseshifter():
    u = embedding(PhaseShifter(0, np.pi), width=3)
    assert np.allclose(u, np.diag([-1.0, 1.0, 1.0]))


def test_embedding_full_width_beamsplitter():
    element = Beamsplitter(0, 1, np.pi / 4, 0.0)
    assert np.allclose(embedding(element, 2), beamsplitter_matrix(np.pi / 4, 0.0))


def test_embedding_action_on_vector():
    alpha = 0.8 - 0.2j
    u = embedding(Beamsplitter(1, 2, np.pi / 4, 0.0), width=3)
    out = u @ np.array([0.0, alpha, 0.0])
    assert np.allclose(out, [0.0, alpha / np.sqrt(2), 1j * alpha / np.sqrt(2)])


def test_embedding_is_unitary():
    rng = np.random.default_rng(11)
    for _ in range(50):
        element = Beamsplitter(0, 3, rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        assert unitarity_defect(embedding(element, 5)) <= 1e-12


def test_embedding_mode_out_of_range():
    with pytest.raises(DimensionError):
        embedding(PhaseShifter(3, 0.1), width=3)
    with pytest.raises(DimensionError):
        embedding(Beamsplitter(0, 5, 0.1, 0.2), width=3)


def test_modes_must_be_integers():
    with pytest.raises(DimensionError, match="integer"):
        Beamsplitter(0.5, 2, 0.1, 0.2)
    with pytest.raises(DimensionError, match="integer"):
        Beamsplitter(0, 2.0, 0.1, 0.2)
    with pytest.raises(DimensionError, match="integer"):
        PhaseShifter(1.0, 0.3)
    assert Beamsplitter(np.int64(0), np.intp(2), 0.1, 0.2).modes == (0, 2)
    assert PhaseShifter(np.int32(1), 0.3).modes == (1,)


def test_beamsplitter_modes_must_differ():
    with pytest.raises(DimensionError):
        Beamsplitter(1, 1, 0.3, 0.0)


def test_angles_must_be_finite():
    with pytest.raises(NonFiniteError):
        Beamsplitter(0, 1, np.nan, 0.0)
    with pytest.raises(NonFiniteError):
        PhaseShifter(0, np.inf)
