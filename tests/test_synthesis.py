import math

import numpy as np
import pytest

from cohcirc import (
    Beamsplitter,
    Circuit,
    PhaseShifter,
    apply_matrix,
    beamsplitter_matrix,
    compile_circuit,
    dilate,
    is_unitary,
    pad_vacuum,
    random_unitary,
    reck_decompose,
)
from cohcirc.errors import ContractionError, DimensionError, NonFiniteError, SynthesisError
from cohcirc.linalg import UNITARY_TOL, max_abs, unitarity_defect
from conftest import psd_root, random_amplitudes, random_circuit, random_contraction


def test_compile_empty_circuit():
    assert np.allclose(compile_circuit(Circuit(3)), np.eye(3))


def test_compile_single_beamsplitter():
    circuit = Circuit(2, (Beamsplitter(0, 1, np.pi / 4, 0.0),))
    assert np.allclose(compile_circuit(circuit), beamsplitter_matrix(np.pi / 4, 0.0))


def test_compile_opposite_phase_pair_is_identity():
    circuit = Circuit(2, (PhaseShifter(0, 0.9), PhaseShifter(0, -0.9)))
    assert max_abs(compile_circuit(circuit) - np.eye(2)) <= 1e-15


def test_compile_is_a_homomorphism():
    rng = np.random.default_rng(20)
    c1 = random_circuit(rng, 5, 8)
    c2 = random_circuit(rng, 5, 8)
    combined = compile_circuit(Circuit(5, c1.elements + c2.elements))
    assert max_abs(combined - compile_circuit(c2) @ compile_circuit(c1)) <= 1e-12


def test_compile_matches_embeddings_on_random_circuits():
    rng = np.random.default_rng(21)
    circuit = random_circuit(rng, 6, 15)
    assert unitarity_defect(compile_circuit(circuit)) <= 1e-12


def test_circuit_rejects_out_of_range_modes():
    with pytest.raises(DimensionError):
        Circuit(2, (PhaseShifter(2, 0.1),))


def test_circuit_accepts_numpy_integer_width():
    assert Circuit(np.int64(2), [Beamsplitter(0, 1, 0.3, 0.0)]) == Circuit(
        2, [Beamsplitter(0, 1, 0.3, 0.0)]
    )


def test_circuit_equality_defers_to_other_types():
    assert Circuit(1).__eq__(1) is NotImplemented
    assert Circuit(1) != 1


def test_reck_rejects_non_square_matrix():
    with pytest.raises(SynthesisError, match="only square matrices"):
        reck_decompose(np.ones((2, 3)))


def test_reck_identity_gives_empty_circuit():
    circuit = reck_decompose(np.eye(5))
    assert circuit.elements == ()


def test_reck_single_beamsplitter_matrix():
    u = beamsplitter_matrix(0.7, 1.1)
    circuit = reck_decompose(u)
    assert circuit.beamsplitter_count == 1
    assert max_abs(compile_circuit(circuit) - u) <= 1e-12


def test_reck_random_eight_by_eight():
    u = random_unitary(8, np.random.default_rng(24))
    circuit = reck_decompose(u)
    assert circuit.beamsplitter_count <= 28
    assert max_abs(compile_circuit(circuit) - u) <= 1e-9


def test_reck_roundtrip_sweep():
    rng = np.random.default_rng(25)
    for size in range(2, 13):
        u = random_unitary(size, rng)
        circuit = reck_decompose(u)
        assert circuit.beamsplitter_count <= size * (size - 1) // 2
        assert circuit.phase_shifter_count <= size
        assert max_abs(compile_circuit(circuit) - u) <= 1e-9


def test_reck_rejects_non_unitary():
    with pytest.raises(SynthesisError, match="not unitary"):
        reck_decompose(np.diag([1.0, 0.5]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reck_rejects_nan_unitarity_defect():
    # U U^dag overflows, so the defect is nan, which no tolerance accepts.
    with pytest.raises(SynthesisError, match="not unitary"):
        reck_decompose([[1e308, 1e308j], [1e308, 1e308]])


def test_reck_handles_permutations():
    # Permutations hit the elimination branch where the diagonal pivot
    # is exactly zero.
    rng = np.random.default_rng(29)
    for n in (2, 3, 5, 8):
        p = np.fliplr(np.eye(n)).astype(complex)
        assert max_abs(compile_circuit(reck_decompose(p)) - p) <= 1e-12
    for _ in range(20):
        n = int(rng.integers(2, 10))
        p = np.eye(n, dtype=complex)[rng.permutation(n)]
        p = p * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        assert max_abs(compile_circuit(reck_decompose(p)) - p) <= 1e-12


@pytest.mark.parametrize("full_mesh", [False, True])
def test_reck_zero_pivot_phase_ignores_the_signs_of_zeros(full_mesh):
    # An exactly zero pivot has no phase of its own, so how its zeros are
    # signed must not change the circuit.
    swaps = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    phased = swaps * np.exp(1j * np.array([0.3, -1.2, 2.0, 0.7]))
    circuits = [
        reck_decompose(np.where(phased == 0, zero, phased), full_mesh=full_mesh)
        for zero in (complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0))
    ]
    assert circuits[0] == circuits[1] == circuits[2]
    assert max_abs(compile_circuit(circuits[0]) - phased) <= 1e-15


def test_reck_tolerates_noise_within_tolerance():
    rng = np.random.default_rng(30)
    u = random_unitary(7, rng)
    noisy = u + 1e-12 * (rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
    circuit = reck_decompose(noisy, tol=1e-10)
    assert max_abs(compile_circuit(circuit) - noisy) <= 1e-9


def test_reck_full_mesh_pads_with_idle_couplers():
    circuit = reck_decompose(np.eye(5), full_mesh=True)
    assert circuit.beamsplitter_count == 10
    assert all(e.theta == 0.0 for e in circuit.elements)
    assert max_abs(compile_circuit(circuit) - np.eye(5)) == 0.0


def test_dilate_isometry_scalar():
    u = dilate(np.array([[1.0]]))
    assert u.shape == (2, 2)
    assert np.allclose(u, np.eye(2))


def test_dilate_scalar_contraction():
    c = 0.6
    u = dilate(np.array([[c]]))
    s = np.sqrt(1 - c**2)
    assert np.allclose(u, [[c, -s], [s, c]])


def test_dilate_block_structure():
    rng = np.random.default_rng(26)
    k = random_contraction(rng, 4, 0.8)
    u = dilate(k)
    eye = np.eye(4)
    assert np.array_equal(u[:4, :4], k)
    assert np.array_equal(u[4:, 4:], k.conj().T)
    # Independent block check: square the complements instead of
    # comparing against another matrix square-root routine.
    top_right = u[:4, 4:]
    bottom_left = u[4:, :4]
    assert max_abs(top_right @ top_right - (eye - k @ k.conj().T)) <= 1e-10
    assert max_abs(bottom_left @ bottom_left - (eye - k.conj().T @ k)) <= 1e-10
    assert np.all(np.linalg.eigvalsh(-top_right) >= -1e-12)
    # Well away from singular values at 1, the complements also match
    # an eigh-based PSD square root directly.
    assert max_abs(top_right + psd_root(eye - k @ k.conj().T)) <= 1e-10
    assert max_abs(bottom_left - psd_root(eye - k.conj().T @ k)) <= 1e-10
    assert unitarity_defect(u) <= 1e-10
    # Inputs on ports 0..3, dark ports 4..7, outputs on ports 0..3.
    x = random_amplitudes(rng, 4)
    assert max_abs(apply_matrix(u, pad_vacuum(x, 8))[:4] - k @ x) <= 1e-12


def test_dilate_handles_singular_value_at_one():
    rng = np.random.default_rng(27)
    k = random_contraction(rng, 5, 1.0)
    u = dilate(k)
    assert unitarity_defect(u) <= 1e-10


def test_dilate_rejects_expansion():
    with pytest.raises(ContractionError):
        dilate(np.diag([1.5, 0.2]))


def test_dilate_tall_matrix():
    k = np.array([[0.8], [0.0]])
    u = dilate(k)
    assert u.shape == (3, 3)
    assert np.array_equal(u[:2, :1], k)
    assert unitarity_defect(u) <= 1e-12
    # The one input enters port 0 with ports 1..2 dark; both outputs leave on ports 0..1.
    x = np.array([0.3 - 1.2j])
    assert max_abs(apply_matrix(u, pad_vacuum(x, 3))[:2] - k @ x) <= 1e-12


def test_dilate_wide_matrix():
    k = np.array([[0.7, 0.0]])
    u = dilate(k)
    assert u.shape == (3, 3)
    assert np.array_equal(u[:1, :2], k)
    # The two inputs enter ports 0..1 with port 2 dark; the one output leaves on port 0.
    x = np.array([0.3 - 1.2j, 2.0 + 0.5j])
    assert max_abs(apply_matrix(u, pad_vacuum(x, 3))[:1] - k @ x) <= 1e-12


def test_dilate_fifty_fifty_combiner_and_splitter():
    # The paper's simplest N != M maps: two inputs combined onto one
    # output, and one input split onto two.
    h = 1 / np.sqrt(2)
    a = np.array([0.3 - 1.2j, 2.0 + 0.5j])
    combiner = dilate(np.array([[h, h]]))
    assert unitarity_defect(combiner) <= 1e-12
    assert abs(apply_matrix(combiner, pad_vacuum(a, 3))[0] - (a[0] + a[1]) * h) <= 1e-12
    splitter = dilate(np.array([[h], [h]]))
    assert unitarity_defect(splitter) <= 1e-12
    out = apply_matrix(splitter, pad_vacuum(a[:1], 3))[:2]
    assert max_abs(out - a[0] * h) <= 1e-12


def test_dilated_random_contractions():
    rng = np.random.default_rng(28)
    for _ in range(10):
        size = int(rng.integers(1, 8))
        k = random_contraction(rng, size, 0.1 + 0.9 * rng.random())
        u = dilate(k)
        assert unitarity_defect(u) <= 1e-10
        assert np.array_equal(u[:size, :size], k)
    for _ in range(20):
        m, n = (int(d) for d in rng.integers(1, 8, size=2))
        z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        k = z * ((0.1 + 0.9 * rng.random()) / np.linalg.norm(z, 2))
        u = dilate(k)
        assert u.shape == (m + n, m + n)
        assert unitarity_defect(u) <= 1e-10
        assert np.array_equal(u[:m, :n], k)
        x = random_amplitudes(rng, n)
        assert max_abs(apply_matrix(u, pad_vacuum(x, m + n))[:m] - k @ x) <= 1e-12


NON_CANONICAL = "a phase shifter row must repeat its mode and have theta 0, got modes "


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Circuit(0), DimensionError, "circuit width must be at least 1"),
        (
            lambda: Circuit(2.5, [Beamsplitter(0, 1, 0.3, 0.0)]),
            DimensionError,
            "circuit width must be an integer, got 2.5",
        ),
        (lambda: Circuit(2.0), DimensionError, "circuit width must be an integer, got 2.0"),
        (lambda: Circuit("2"), DimensionError, "circuit width must be an integer, got '2'"),
        (
            lambda: Circuit(2, (PhaseShifter(2, 0.1),)),
            DimensionError,
            "element modes (2,) exceed circuit width 2",
        ),
        (
            lambda: Circuit(3, (Beamsplitter(0, 1, 0.1, 0.2), Beamsplitter(1, 3, 0.1, 0.2))),
            DimensionError,
            "element modes (1, 3) exceed circuit width 3",
        ),
        (
            lambda: Circuit(2, (Beamsplitter(0, 1, np.nan, 0.0),)),
            NonFiniteError,
            "beamsplitter angles must be finite",
        ),
        (
            lambda: Circuit(2, (PhaseShifter(0, np.inf),)),
            NonFiniteError,
            "phase shifter angle must be finite",
        ),
        # Each of these once passed and read as PhaseShifter(0, 0.5), yet
        # compared unequal to it.
        (
            lambda: Circuit(2, columns=([[0, 1]], [False], [0.0], [0.5])),
            DimensionError,
            NON_CANONICAL + "(0, 1) and theta 0",
        ),
        (
            lambda: Circuit(2, columns=([[0, 0]], [False], [0.7], [0.5])),
            DimensionError,
            NON_CANONICAL + "(0, 0) and theta 0.7",
        ),
        (
            lambda: Circuit(2, columns=([[0, 5]], [False], [0.0], [0.5])),
            DimensionError,
            NON_CANONICAL + "(0, 5) and theta 0",
        ),
        # This once kept the columns and dropped the beamsplitter.
        (
            lambda: Circuit(
                2, [Beamsplitter(0, 1, 0.1, 0.2)], columns=([[0, 0]], [False], [0.0], [0.3])
            ),
            TypeError,
            "give a circuit's elements or its columns, not both",
        ),
    ],
)
def test_circuit_error_messages_are_pinned(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_non_canonical_phase_shifter_row_is_named():
    columns = ([[0, 0], [1, 1], [1, 0]], [False] * 3, [0.0] * 3, [0.1, 0.2, 0.3])
    with pytest.raises(DimensionError) as caught:
        Circuit(2, columns=columns)
    assert caught.value.row == 2


def test_circuit_columns_must_be_integer_modes_in_range():
    with pytest.raises(DimensionError, match="integers"):
        Circuit(3, columns=([[0.5, 1]], [True], [0.1], [0.2]))
    with pytest.raises(DimensionError, match="integers"):
        Circuit(3, (Beamsplitter(0, 2**70, 0.1, 0.2),))
    built = Circuit(3, columns=(np.array([[0, 2], [1, 1]]), [True, False], [0.1, 0.0], [0.2, 0.3]))
    assert built == Circuit(3, (Beamsplitter(0, 2, 0.1, 0.2), PhaseShifter(1, 0.3)))


def test_circuits_differing_only_in_the_sign_of_a_zero_angle_are_equal():
    columns = ([[0, 1], [1, 1]], [True, False], [0.3, 0.0])
    plus, minus = (Circuit(2, columns=columns + ([phi, 0.5],)) for phi in (0.0, -0.0))
    assert plus == minus and hash(plus) == hash(minus)


# The tolerance gates are inclusive: each test checks the value at the edge
# and the next double past it on the other side.


def test_unitarity_gates_accept_a_defect_equal_to_tol():
    m = random_unitary(4, np.random.default_rng(50)) * (1 + 1e-12)
    defect = unitarity_defect(m)
    assert defect > 0
    assert is_unitary(m, defect)
    assert not is_unitary(m, math.nextafter(defect, 0))
    assert reck_decompose(m, defect).width == 4
    with pytest.raises(SynthesisError, match="not unitary"):
        reck_decompose(m, math.nextafter(defect, 0))


def test_reck_skips_an_entry_equal_to_tol():
    a = 1e-10
    m = np.array([[1, -a], [a, 1]])
    assert reck_decompose(m, a).beamsplitter_count == 0
    assert reck_decompose(m, math.nextafter(a, 0)).beamsplitter_count == 1


def test_reck_pivot_of_modulus_tol_has_no_phase():
    b0 = -1e-10
    m = np.array([[-b0, 1], [1, b0]])  # real orthogonal
    for tol, phi in ((-b0, np.pi / 2), (math.nextafter(-b0, 0), -np.pi / 2)):
        circuit = reck_decompose(m, tol)
        assert circuit.beamsplitter_count == 1 and circuit.phi[0] == phi
        assert max_abs(compile_circuit(circuit) - m) <= 10 * tol


@pytest.mark.parametrize("angle", [1e-11, 3e-7, 0.2])
def test_reck_drops_a_trailing_phase_within_tol(angle):
    d = np.exp(1j * angle)
    m = np.diag([1, d])
    tol = float(np.abs(np.complex128(d) - 1))  # Python's abs can differ in the last bit
    assert reck_decompose(m, tol).phase_shifter_count == 0
    assert reck_decompose(m, math.nextafter(tol, 0)).phase_shifter_count == 1


def test_dilate_accepts_a_singular_value_of_sqrt_one_plus_tol():
    sigma = math.sqrt(1 + UNITARY_TOL)
    assert dilate([[sigma]]).shape == (2, 2)
    with pytest.raises(ContractionError):
        dilate([[math.nextafter(sigma, 2)]])
