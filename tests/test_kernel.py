"""The lowered, layer-scheduled circuit kernel.

``element_loop`` is the element-by-element propagation that
``apply_circuit`` and ``compile_circuit`` ran before circuits were
lowered; it is kept here as the reference the kernel is checked against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohcirc import (
    Beamsplitter,
    Circuit,
    PhaseShifter,
    apply_circuit,
    beamsplitter_matrix,
    comparison_map,
    compile_circuit,
    dilate,
    phaseshifter_factor,
    random_unitary,
    reck_decompose,
)
from cohcirc.linalg import max_abs
from cohcirc.synthesis import propagate

angles = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi, allow_nan=False)


def element_loop(circuit: Circuit, x) -> np.ndarray:
    out = np.array(x, dtype=complex)
    for element in circuit.elements:
        if isinstance(element, Beamsplitter):
            pair = [element.mode1, element.mode2]
            out[pair] = beamsplitter_matrix(element.theta, element.phi) @ out[pair]
        else:
            out[element.mode] *= phaseshifter_factor(element.phi)
    return out


@st.composite
def circuits(draw):
    """Interleaved couplers and shifters on few modes, so pairs repeat and
    appear in both orders (mode1 > mode2 included)."""
    width = draw(st.integers(min_value=1, max_value=6))
    mode = st.integers(min_value=0, max_value=width - 1)
    shifter = st.builds(PhaseShifter, mode, angles)
    if width == 1:
        element = shifter
    else:
        coupler = st.tuples(mode, st.integers(1, width - 1), angles, angles).map(
            lambda t: Beamsplitter(t[0], (t[0] + t[1]) % width, t[2], t[3])
        )
        element = st.one_of(coupler, shifter)
    return Circuit(width, tuple(draw(st.lists(element, max_size=40))))


@settings(max_examples=200, deadline=None)
@given(circuit=circuits(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_kernel_matches_element_loop(circuit, seed):
    rng = np.random.default_rng(seed)
    width = circuit.width
    vec = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    block = rng.standard_normal((width, 3)) + 1j * rng.standard_normal((width, 3))
    vec_before = vec.copy()

    assert max_abs(propagate(circuit, vec) - element_loop(circuit, vec)) <= 1e-13
    assert max_abs(apply_circuit(circuit, vec) - element_loop(circuit, vec)) <= 1e-13
    assert max_abs(propagate(circuit, block) - element_loop(circuit, block)) <= 1e-13
    identity = np.eye(width)
    assert max_abs(compile_circuit(circuit) - element_loop(circuit, identity)) <= 1e-13
    assert np.array_equal(vec, vec_before)


def asap_layers(circuit: Circuit) -> list[int]:
    """Each element's layer: one past the last earlier element sharing a mode."""
    free = [0] * circuit.width
    layers = []
    for element in circuit.elements:
        at = max(free[m] for m in element.modes)
        for m in element.modes:
            free[m] = at + 1
        layers.append(at)
    return layers


@settings(max_examples=100, deadline=None)
@given(circuit=circuits())
def test_lowering_keeps_list_order_and_schedules_as_soon_as_possible(circuit):
    # Layer L updates exactly the modes of the elements scheduled in L, each
    # once, so a layer's elements act on disjoint modes.
    layers = asap_layers(circuit)
    steps = circuit.lowered
    assert len(steps) == max(layers, default=-1) + 1
    for layer, (src, coef, dst) in enumerate(steps):
        modes = [m for e, at in zip(circuit.elements, layers) if at == layer for m in e.modes]
        assert sorted(dst.tolist()) == sorted(modes)
        assert len(set(modes)) == len(modes)
        assert set(src.ravel().tolist()) == set(modes)
        assert coef.shape == src.shape


def test_lowering_is_kept_on_the_instance():
    circuit = reck_decompose(random_unitary(5, np.random.default_rng(40)))
    twin = Circuit(circuit.width, circuit.elements)
    lowered = circuit.lowered
    assert circuit.lowered is lowered
    assert circuit == twin
    assert hash(circuit) == hash(twin)
    assert repr(circuit) == repr(twin)


def test_empty_and_idle_circuits_are_the_identity_exactly():
    assert np.array_equal(compile_circuit(Circuit(4)), np.eye(4))
    idle = reck_decompose(np.eye(6), full_mesh=True)
    assert idle.beamsplitter_count == 15
    assert np.array_equal(compile_circuit(idle), np.eye(6))
    vec = np.array([1.5 - 2j, 0.25j, -3.0, 0.0, 1e-300, 7.0 + 7.0j])
    assert np.array_equal(apply_circuit(idle, vec), vec)


@pytest.mark.parametrize("n", [2, 3, 8, 33])
def test_reck_schedule_depth(n):
    u = random_unitary(n, np.random.default_rng(41 + n))
    steps = reck_decompose(u).lowered
    # Coupler rows mix two modes; phase-shifter rows read their own mode.
    mixing = [src[0] != src[1] for src, _, _ in steps]
    assert sum(int(m.sum()) for m in mixing) == n * (n - 1)
    assert sum(bool(m.any()) for m in mixing) <= 2 * n - 3
    assert len(steps) <= 2 * n - 2


def test_round_trip_stays_tight_up_to_128_modes():
    rng = np.random.default_rng(42)
    for n in (16, 64, 128):
        u = random_unitary(n, rng)
        assert max_abs(compile_circuit(reck_decompose(u)) - u) <= 1e-14


def reck_rows_in_place(u, tol=1e-10, full_mesh=False):
    """The element-by-element Reck loop: each entry of a row is nulled by
    one in-place column update.  Kept as the reference for
    ``reck_decompose``; returns (col, row, theta, phi) couplers and
    (mode, phi) shifters."""
    wt = np.array(u, dtype=complex).T.copy()
    n = wt.shape[0]
    couplers, shifters = [], []
    for row in range(n - 1, 0, -1):
        targets = wt[:row, row].tolist()
        y = wt[row, : row + 1]
        for col in range(row - 1, -1, -1):
            a = targets[col]
            if abs(a) <= tol:
                wt[col, row] = 0.0
                if full_mesh:
                    couplers.append((col, row, 0.0, 0.0))
                continue
            b = complex(wt[row, row])
            theta = np.arctan2(abs(a), abs(b))
            phi = np.angle(a) - (np.angle(b) if abs(b) > tol else 0) + np.pi / 2
            phi = (phi + np.pi) % (2 * np.pi) - np.pi
            c, s, e = np.cos(theta), np.sin(theta), np.exp(1j * phi)
            x = wt[col, : row + 1]
            from_x = x * (1j * s * np.conj(e))
            x *= c
            x += y * (1j * s * e)
            y *= c
            y += from_x
            wt[col, row] = 0.0
            couplers.append((col, row, -theta, phi))
    for mode, d in enumerate(np.diagonal(wt).tolist()):
        if abs(d - 1.0) > tol:
            shifters.append((mode, -np.angle(d)))
    return couplers, shifters


def adversarial_unitaries():
    """Inputs where entries sit at or near the skip tolerance, pivots are
    zero, or whole rows are already reduced."""
    rng = np.random.default_rng(43)
    n = 12
    permutation = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
    idx = np.arange(n)
    dft = np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 1e-9 * (h + h.conj().T) / np.abs(h + h.conj().T).max()
    w, v = np.linalg.eigh(h)
    near_identity = (v * np.exp(1j * w)) @ v.conj().T
    block = np.eye(n, dtype=complex)
    block[:7, :7] = random_unitary(7, rng)
    flipped = random_unitary(n, rng)[::-1]
    return {
        "permutation": permutation,
        "dft": dft,
        "exp_iH": near_identity,
        "haar_plus_identity": block,
        "row_flipped_haar": flipped,
        "search_dilation": dilate(comparison_map(6)),
    }


def wrapped(angle):
    return (np.asarray(angle) + np.pi) % (2 * np.pi) - np.pi


@pytest.mark.parametrize("family", sorted(adversarial_unitaries()))
@pytest.mark.parametrize("full_mesh", [False, True])
def test_reck_matches_in_place_loop_on_adversarial_families(family, full_mesh):
    u = adversarial_unitaries()[family]
    circuit = reck_decompose(u, full_mesh=full_mesh)
    couplers, shifters = reck_rows_in_place(u, full_mesh=full_mesh)
    got_couplers = [e for e in circuit.elements if isinstance(e, Beamsplitter)]
    got_shifters = [e for e in circuit.elements if isinstance(e, PhaseShifter)]
    assert circuit.elements == tuple(got_couplers) + tuple(got_shifters)
    assert [(e.mode1, e.mode2) for e in got_couplers] == [c[:2] for c in couplers]
    assert [e.mode for e in got_shifters] == [s[0] for s in shifters]
    if full_mesh:
        assert circuit.beamsplitter_count == u.shape[0] * (u.shape[0] - 1) // 2
    theta = np.array([e.theta for e in got_couplers]) - [c[2] for c in couplers]
    phi = [e.phi for e in got_couplers + got_shifters]
    phi = wrapped(np.array(phi) - ([c[3] for c in couplers] + [s[1] for s in shifters]))
    assert max_abs(np.concatenate([theta, phi, [0.0]])) <= 1e-12
    oracle = Circuit(
        u.shape[0], [Beamsplitter(*c) for c in couplers] + [PhaseShifter(*s) for s in shifters]
    )
    # exp_iH has entries under the skip tolerance, so neither mesh is exact there.
    residual = max_abs(compile_circuit(circuit) - u)
    assert residual <= max_abs(compile_circuit(oracle) - u) + 1e-14


@pytest.mark.parametrize("n", [6, 12])
def test_reck_round_trip_with_exactly_zero_pivots(n):
    # A pivot of modulus at most tol, exactly zero or rounding noise, takes
    # phase 0.  The n = 6 search dilation is compared angle by angle with
    # the in-place loop among the adversarial families; here only the round
    # trip is pinned.
    rng = np.random.default_rng(44 + n)
    phased = np.eye(n)[rng.permutation(n)] * np.exp(2j * np.pi * rng.random(n))
    search = dilate(comparison_map(n))
    for u in (phased, search):
        for full_mesh in (False, True):
            assert max_abs(compile_circuit(reck_decompose(u, full_mesh=full_mesh)) - u) <= 1e-14
