import math
from fractions import Fraction

import numpy as np
import pytest

from cohcirc import (
    SearchOutcome,
    SearchSpec,
    analytic_success_probability,
    apply_matrix,
    attenuation_ladder,
    bellcat_feasibility,
    click_probability,
    comparison_map,
    compile_circuit,
    dft_matrix,
    dilate,
    generate_phase_states,
    max_comparison_scale,
    mean_photon_number,
    restore,
    run_search,
    search_circuit,
    search_unitary_explicit,
    success_probability,
)
from cohcirc import protocols
from cohcirc.errors import ContractionError, DimensionError, NonFiniteError, SynthesisError
from cohcirc.linalg import max_abs, unitarity_defect
from cohcirc.protocols import BELL_TARGETS, DILATION, EXPLICIT
from conftest import psd_root


# --- phase states and attenuation ------------------------------------------


def test_dft_trivial_size():
    assert np.allclose(dft_matrix(1), [[1.0]])


def test_dft_size_two():
    assert np.allclose(dft_matrix(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_dft_is_unitary():
    assert unitarity_defect(dft_matrix(4)) <= 1e-12


def test_phase_states_order_four():
    physical = np.conj(generate_phase_states(4, 1.0))
    assert np.allclose(physical, [1.0, 1j, -1.0, -1j], atol=1e-12)


def test_phase_states_vacuum_input():
    assert np.allclose(generate_phase_states(3, 0.0), np.zeros(3))


def test_phase_states_conserve_photon_number():
    alpha = 1.3 - 0.4j
    out = generate_phase_states(6, alpha)
    assert mean_photon_number(out) == pytest.approx(6 * abs(alpha) ** 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: dft_matrix(0), "DFT size must be an integer of at least 1, got 0"),
        (lambda: dft_matrix(2.5), "DFT size must be an integer of at least 1, got 2.5"),
        (lambda: generate_phase_states(0, 1.0), "need at least one output state"),
        (lambda: attenuation_ladder(0, 1.0), "need at least one rung"),
        (lambda: generate_phase_states(2.5, 1.0), "need at least one output state"),
        (lambda: attenuation_ladder(2.5, 1.0), "need at least one rung"),
        (lambda: comparison_map(2.5), "need at least two reference states"),
    ],
    ids=[
        "dft-empty", "dft-fractional", "phase-states-empty", "ladder-empty",
        "phase-states-fractional", "ladder-fractional", "comparison-fractional",
    ],
)
def test_sizes_must_be_positive_integers(build, message):
    with pytest.raises(DimensionError) as caught:
        build()
    assert str(caught.value) == message


def test_attenuation_ladder_single_rung():
    assert np.allclose(attenuation_ladder(1, 2.0 + 1j), [2.0 - 1j])


def test_attenuation_ladder_values():
    physical = np.conj(attenuation_ladder(2, np.sqrt(2)))
    assert np.allclose(physical, [np.sqrt(2), 1.0], atol=1e-12)


def test_attenuation_ladder_loses_photons():
    alpha = 1.5
    out = attenuation_ladder(4, alpha)
    assert mean_photon_number(out) <= 4 * alpha**2 + 1e-10


# --- comparison map and the explicit identification unitary ----------------


def test_comparison_map_matches_reference_layout():
    expected = np.array([[0, 0, 0], [1, -1, 0], [1, 0, -1]]) / np.sqrt(3)
    assert np.allclose(comparison_map(2), expected)


def test_comparison_map_contraction_bound():
    from cohcirc import spectral_norm

    assert spectral_norm(comparison_map(2, 1.0)) == pytest.approx(np.sqrt(3), abs=1e-12)
    for n in (2, 3, 4, 5):
        assert spectral_norm(comparison_map(n)) == pytest.approx(1.0, abs=1e-12)


def test_comparison_map_above_bound_is_rejected_by_dilation():
    with pytest.raises(ContractionError):
        dilate(comparison_map(2, 1.0))


def test_comparison_map_action():
    a0, a1, a2 = 1.0 + 2j, -0.5, 0.25j
    starred = np.conj([a0, a1, a2])
    out = apply_matrix(comparison_map(2), starred)
    c = max_comparison_scale(2)
    assert np.allclose(out, [0.0, c * np.conj(a0 - a1), c * np.conj(a0 - a2)])


def test_comparison_map_needs_two_references():
    with pytest.raises(DimensionError):
        comparison_map(1)


def test_comparison_map_dilates_to_six_modes():
    k = comparison_map(2)
    u = dilate(k)
    assert u.shape == (6, 6)
    assert max_abs(u[:3, :3] - k) == 0.0
    assert unitarity_defect(u) <= 1e-10


def test_search_unitary_is_unitary():
    assert unitarity_defect(search_unitary_explicit()) <= 1e-10


def test_search_unitary_blocks():
    u = search_unitary_explicit()
    k = comparison_map(2)
    assert max_abs(u[:3, :3] - k) <= 1e-15
    assert max_abs(u[3:, 3:] - k.conj().T) <= 1e-15
    assert max_abs(u[3:, :3] - psd_root(np.eye(3) - k.conj().T @ k)) <= 1e-12
    assert np.allclose(u[0], [0, 0, 0, 1, 0, 0])


def test_search_unitary_comparison_outputs():
    u = search_unitary_explicit()
    starred = np.conj(np.array([2.0, 2.0, -2.0, 0, 0, 0]))
    out = apply_matrix(u, starred)
    assert out[1] == pytest.approx(0.0)
    assert out[2] == pytest.approx(4 / np.sqrt(3))


def test_search_unitary_matches_comparison_block_action():
    u = search_unitary_explicit()
    starred = np.conj(np.array([0.3 + 1j, -0.4, 1.2j, 0, 0, 0]))
    top = apply_matrix(u, starred)[:3]
    direct = apply_matrix(comparison_map(2), starred[:3])
    assert np.max(np.abs(top - direct)) <= 1e-15


# The 6x6 completion as the paper prints it, for two references at c = 1/sqrt(3).
_A, _B, _T = np.sqrt(1 / 3), np.sqrt(1 / 6), 1 / 3
_HI, _LO = (2 + np.sqrt(6)) / 6, (2 - np.sqrt(6)) / 6
PAPER_SEARCH_UNITARY = np.array(
    [
        [0, 0, 0, 1, 0, 0],
        [_A, -_A, 0, 0, -_B, _B],
        [_A, 0, -_A, 0, _B, -_B],
        [_T, _T, _T, 0, _A, _A],
        [_T, _HI, _LO, 0, -_A, 0],
        [_T, _LO, _HI, 0, 0, -_A],
    ],
    dtype=complex,
)


def test_paper_search_unitary_is_the_derived_completion():
    assert unitarity_defect(PAPER_SEARCH_UNITARY) <= 1e-15
    assert max_abs(PAPER_SEARCH_UNITARY[1:3, :3] - comparison_map(2)[1:3]) <= 5e-16
    assert max_abs(PAPER_SEARCH_UNITARY - search_unitary_explicit()) <= 5e-16


def test_explicit_operator_is_the_dilation_with_row_0_negated():
    explicit, dilation = (SearchSpec((0.3, 1.9), 0.3, mode=m) for m in (EXPLICIT, DILATION))
    flipped = dilation.operator.copy()
    flipped[0] = -flipped[0]
    assert explicit.operator.tobytes() == flipped.tobytes()


# --- search spec / trials ---------------------------------------------------


def test_search_spec_defaults_to_max_scale():
    spec = SearchSpec((1.0, 2.0), 1.0)
    assert spec.c == pytest.approx(1 / np.sqrt(3))
    assert spec.n == 2


def test_search_spec_rejects_oversized_scale():
    with pytest.raises(ContractionError):
        SearchSpec((1.0, 2.0), 1.0, c=0.9)


def test_search_spec_bounds_the_modulus_of_the_scale():
    with pytest.raises(ContractionError, match="exceeds the contraction bound"):
        SearchSpec((0.0, 1.0), 0.0, c=-1.0)
    spec = SearchSpec((0.0, 1.0), 0.0, c=-1 / np.sqrt(3))
    assert np.linalg.svd(comparison_map(2, spec.c), compute_uv=False)[0] == pytest.approx(1.0)
    assert analytic_success_probability(spec) == pytest.approx(success_probability(0.0, 1.0))
    batch = run_search(spec, seed=5, trials=20)
    expected = np.concatenate([np.conj([0.0, 0.0, 1.0]), np.zeros(3)])
    assert np.max(np.abs(restore(batch, spec) - expected)) <= 1e-12
    assert set(batch.identified.tolist()) <= {0, 1}


def test_search_spec_warns_on_degenerate_references():
    with pytest.warns(UserWarning, match="coincide") as caught:
        SearchSpec((1.0, 1.0), 1.0)
    assert caught[0].filename == __file__


def test_search_spec_needs_two_references():
    with pytest.raises(DimensionError):
        SearchSpec((1.0,), 1.0)


def test_search_spec_match():
    assert SearchSpec((1.0, 2.0, 3.0), 2.0).match == 2
    assert SearchSpec((1.0, 2.0, 3.0), 2.5).match is None
    with pytest.warns(UserWarning, match="coincide"):
        duplicated = SearchSpec((1.0, 2.0, 1.0), 1.0)
    assert duplicated.match is None
    with pytest.warns(UserWarning, match="coincide"):
        assert SearchSpec((1.0, 2.0, 2.0), 1.0).match == 1


def test_search_spec_warns_per_coincident_pair_in_order():
    with pytest.warns(UserWarning, match="coincide") as caught:
        spec = SearchSpec((1, 2, 1, 2), 1)
    assert [str(w.message).split(" coincide")[0] for w in caught] == [
        "references 1 and 3",
        "references 2 and 4",
    ]
    assert all(w.filename == __file__ for w in caught)
    assert spec.match is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_search_spec_matches_relative_to_largest_modulus():
    assert SearchSpec((0.1 + 0.2, 1.0), 0.3).match == 1
    assert SearchSpec((1e300, 2e300), 1e300 * (1 + 1e-13)).match == 1
    assert SearchSpec((0.5, 2.0), 0.5 + 1.5e-12).match == 1
    assert SearchSpec((0.5, 2.0), 0.5 + 3e-12).match is None
    assert SearchSpec((0.0, 5e-324), 0.0).match == 1
    assert SearchSpec((5e-324, 1e-323), 5e-324).match == 1
    huge = 1.7e308 + 1.7e308j
    assert SearchSpec((huge, -huge), huge).match == 1
    with pytest.warns(UserWarning, match="references 1 and 2 coincide"):
        SearchSpec((1.0, 1.0 + 1e-13), 2.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
def test_search_spec_rejects_non_finite_amplitudes(value):
    with pytest.raises(NonFiniteError):
        SearchSpec((1.0, value), 1.0)
    with pytest.raises(NonFiniteError):
        SearchSpec((1.0, 2.0), value)


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
def test_search_spec_rejects_non_finite_scale(c):
    with pytest.raises(NonFiniteError) as built:
        SearchSpec((1.0, 2.0), 1.0, c=c)
    # The bare map checks its scale the same way.
    with pytest.raises(NonFiniteError) as mapped:
        comparison_map(3, c)
    assert str(mapped.value) == str(built.value) == f"comparison scale must be finite, got {c}"


def test_run_search_is_deterministic():
    spec = SearchSpec((0.0, 2.5), 0.0)
    first = run_search(spec, seed=42)
    second = run_search(spec, seed=42)
    assert first.identified == second.identified
    np.testing.assert_array_equal(first.clicked, second.clicked)


def test_run_search_identifies_matching_reference():
    # data == ref 1, |a1 - a2|^2 = 27: failure probability e^-9.
    spec = SearchSpec((0.0, np.sqrt(27)), 0.0)
    failures = sum(
        run_search(spec, seed=900 + t).identified != 1 for t in range(2000)
    )
    assert failures <= max(5, 10 * 2000 * np.exp(-9))


def test_run_search_never_misidentifies_matching_data():
    spec = SearchSpec((0.4 + 0.1j, -1.0), 0.4 + 0.1j)
    for t in range(500):
        outcome = run_search(spec, seed=3000 + t)
        assert outcome.identified in (1, None)


def test_run_search_degenerate_references_inconclusive():
    with pytest.warns(UserWarning):
        spec = SearchSpec((1.0, 1.0), 1.0)
    for t in range(50):
        outcome = run_search(spec, seed=t)
        assert outcome.identified is None
        assert not outcome.clicked.any()


def test_run_search_three_references():
    spec = SearchSpec((0.0, 4.0, 4.0j), 0.0)
    hits = sum(run_search(spec, seed=5000 + t).identified == 1 for t in range(200))
    assert hits >= 190  # both non-matching ports are bright


def test_run_search_modes_share_click_statistics():
    spec = SearchSpec((0.3, 1.9), 0.3)
    u_explicit = search_unitary_explicit()
    u_dilated = dilate(comparison_map(2))
    starred = np.conj(np.array([0.3, 0.3, 1.9, 0, 0, 0]))
    comparison_explicit = apply_matrix(u_explicit, starred)[1:3]
    comparison_dilated = apply_matrix(u_dilated, starred)[1:3]
    assert np.max(np.abs(comparison_explicit - comparison_dilated)) <= 1e-14
    explicit = SearchSpec((0.3, 1.9), 0.3, mode=EXPLICIT)
    for t in range(100):
        a = run_search(explicit, seed=100 + t)
        b = run_search(spec, seed=100 + t)
        assert a.identified == b.identified
        np.testing.assert_array_equal(a.clicked, b.clicked)


@pytest.mark.parametrize(
    "refs, data, mode",
    [
        ((0.0, 1.7), 0.0, DILATION),
        ((0.3, 1.9j), 1.9j, EXPLICIT),
        ((0.0, 2.0, 2.0j, -1.0 + 1.0j), 2.0j, DILATION),
        ((0.0, 0.8), 0.4, DILATION),
    ],
    ids=["refs0-0.0-dilation", "refs1-1.9j-explicit", "refs2-2j-dilation", "refs3-0.4-dilation"],
)
def test_run_search_batch_equals_single_trials(refs, data, mode):
    spec = SearchSpec(refs, data, mode=mode)
    batch = run_search(spec, seed=2**40 - 1000, trials=2000)
    assert batch.identified.shape == (2000,) and batch.clicked.shape == (2000, len(refs))
    for t in range(2000):
        single = run_search(spec, seed=2**40 - 1000 + t)
        assert (single.identified or 0) == batch.identified[t]
        np.testing.assert_array_equal(single.clicked, batch.clicked[t])
        np.testing.assert_array_equal(single.retained, batch.retained)


@pytest.mark.parametrize("mode", [DILATION, EXPLICIT])
def test_search_propagates_once_per_spec_and_mode(mode, monkeypatch):
    import cohcirc.protocols as protocols

    matrices = []

    def counted(m, amplitudes):
        matrices.append(m)
        return apply_matrix(m, amplitudes)

    monkeypatch.setattr(protocols, "apply_matrix", counted)
    spec = SearchSpec((0.3, 1.9j), 0.3, mode=mode)
    outcomes = [run_search(spec, seed=t) for t in range(50)]
    run_search(spec, seed=50, trials=1000)
    restore(outcomes[0], spec)
    forward = spec.operator
    # One forward pass; the only other call is restore's inverse map.
    assert sum(m is forward for m in matrices) == 1
    assert len(matrices) == 2


def test_search_results_keep_the_pass_read_only():
    spec = SearchSpec((0.0, 1.5), 0.0)
    for result in (run_search(spec, seed=1), run_search(spec, seed=1, trials=10)):
        assert not result.retained.flags.writeable
        with pytest.raises(ValueError):
            result.retained[0] = 1.0


def test_single_trials_and_batches_share_one_result_type():
    spec = SearchSpec((0.0, 1.5, 3.0), 0.0)
    single = run_search(spec, seed=4)
    batch = run_search(spec, seed=4, trials=6)
    assert type(single) is type(batch) is SearchOutcome
    assert single.clicked.shape == (3,) and batch.clicked.shape == (6, 3)
    assert batch.identified.shape == (6,)
    assert single.identified in (1, None) and batch.identified[0] == (single.identified or 0)


def test_search_operator_cache_is_bounded():
    for c in np.linspace(0.2, 0.5, 200):
        SearchSpec((0.0, 1.0), 0.0, c=c).operator
    assert protocols._search_operator.cache_info().currsize <= 128
    assert protocols._dft_circuit.cache_info().maxsize == 128


def test_searched_spec_stays_equal_to_a_fresh_one():
    searched, fresh = SearchSpec((0.0, 1.5), 0.0), SearchSpec((0.0, 1.5), 0.0)
    run_search(searched, seed=3)
    run_search(searched, seed=3, trials=5)
    assert searched == fresh and hash(searched) == hash(fresh)
    assert repr(searched) == repr(fresh)


def test_explicit_spec_is_rejected_when_built():
    with pytest.raises(SynthesisError, match="fixes the comparison scale"):
        SearchSpec((1.0, 2.0), 1.0, c=0.5, mode=EXPLICIT)
    # The same setups build in dilation mode and search and restore there.
    spec = SearchSpec((1.0, 2.0, 3.0), 1.0)
    outcome = run_search(spec, seed=0)
    assert outcome.retained.shape == (4,)
    expected = np.concatenate([np.conj([1.0, 1.0, 2.0, 3.0]), np.zeros(4)])
    assert np.max(np.abs(restore(outcome, spec) - expected)) <= 1e-12


def test_explicit_mode_requires_two_references():
    with pytest.raises(DimensionError, match="only defined for two references"):
        SearchSpec((1.0, 2.0, 3.0), 1.0, mode=EXPLICIT)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown search mode 'bogus'"):
        SearchSpec((1.0, 2.0), 1.0, mode="bogus")


def test_specs_differing_only_in_mode_are_distinct():
    dilation, explicit = (SearchSpec((0.0, 1.5), 0.0, mode=m) for m in (DILATION, EXPLICIT))
    assert dilation != explicit and hash(dilation) != hash(explicit)
    assert "mode='dilation'" in repr(dilation) and "mode='explicit'" in repr(explicit)
    assert dilation == SearchSpec((0.0, 1.5), 0.0)
    assert not np.array_equal(dilation.operator, explicit.operator)


def test_spec_outputs_are_computed_once_and_read_only():
    spec = SearchSpec((0.0, 1.5), 0.0)
    assert spec.outputs is spec.outputs
    assert not spec.outputs.flags.writeable and not spec.operator.flags.writeable
    with pytest.raises(AttributeError):
        spec.outputs = np.zeros(6)
    with pytest.raises(AttributeError):
        spec.mode = EXPLICIT


# --- restoration -------------------------------------------------------------


def test_restore_roundtrip_both_modes():
    rng = np.random.default_rng(40)
    for mode in (EXPLICIT, DILATION):
        refs = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        spec = SearchSpec(refs, refs[0], mode=mode)
        outcome = run_search(spec, seed=77)
        restored = restore(outcome, spec)
        expected = np.conj(np.array([spec.data, *spec.references, 0, 0, 0])[:3])
        expected = np.concatenate([expected, np.zeros(3)])
        assert np.max(np.abs(restored - expected)) <= 1e-10


def test_restore_is_click_independent():
    # Restoration replenishes group A from extra copies, so it succeeds
    # even on inconclusive trials.
    spec = SearchSpec((0.01, -0.01), 0.01)  # weak amplitudes: clicks are rare
    outcome = run_search(spec, seed=5)
    assert outcome.identified is None
    restored = restore(outcome, spec)
    expected = np.concatenate([np.conj([0.01, 0.01, -0.01]), np.zeros(3)])
    assert np.max(np.abs(restored - expected)) <= 1e-12


def test_restore_zero_input():
    with pytest.warns(UserWarning):
        spec = SearchSpec((0.0, 0.0), 0.0)
    outcome = run_search(spec, seed=0)
    assert np.max(np.abs(restore(outcome, spec))) <= 1e-15


def test_restore_through_inverted_physical_circuit():
    # The two-pass story on hardware: forward through the synthesized
    # mesh, replenish group A from extra copies, send everything back
    # through the inverted mesh.
    from cohcirc import apply_circuit, pad_vacuum, reck_decompose

    spec = SearchSpec((1.0 + 0.5j, -2.0), 1.0 + 0.5j)
    circuit = search_circuit(2)
    starred_in = pad_vacuum(np.conj([spec.data, *spec.references]), 6)
    outcome = run_search(spec, seed=11)
    fresh = apply_circuit(circuit, starred_in)
    reassembled = np.concatenate([fresh[:3], outcome.retained])
    backward = reck_decompose(compile_circuit(circuit).conj().T)
    recovered = apply_circuit(backward, reassembled)
    assert np.max(np.abs(recovered - starred_in)) <= 1e-10


def test_restore_rejects_bad_retained_width():
    spec = SearchSpec((1.0, 2.0), 1.0)
    outcome = run_search(spec, seed=0)
    bad = type(outcome)(
        identified=outcome.identified,
        clicked=outcome.clicked,
        retained=outcome.retained[:-1],
    )
    with pytest.raises(DimensionError):
        restore(bad, spec)


# --- success probability -----------------------------------------------------


def test_success_probability_degenerate():
    assert success_probability(1.0, 1.0) == 0.0
    # |alpha1 - alpha2|^2 overflows: the rate saturates as click_probability's does.
    assert success_probability(0.0, 1e155) == 1.0
    assert success_probability(1.7e308, -1.7e308) == 1.0  # the difference overflows
    # A non-finite amplitude is an error, as it is for click_probability.
    for value in (np.nan, np.inf, complex(0, -np.inf)):
        for pair in ((value, 0.0), (0.0, value)):
            with pytest.raises(NonFiniteError, match="^amplitudes must be finite$"):
                success_probability(*pair)


def test_success_probability_reference_point():
    assert success_probability(0.0, np.sqrt(3)) == pytest.approx(0.632121, abs=1e-6)


def test_success_probability_monte_carlo():
    d = np.sqrt(3)
    spec = SearchSpec((0.0, d), 0.0)
    trials = 20_000
    hits = sum(run_search(spec, seed=10_000 + t).identified == 1 for t in range(trials))
    p = success_probability(0.0, d)
    assert abs(hits / trials - p) <= 4 * np.sqrt(p * (1 - p) / trials)


def test_analytic_success_matches_two_reference_formula():
    spec = SearchSpec((0.7 + 0.1j, -0.4), 0.7 + 0.1j)
    assert analytic_success_probability(spec) == pytest.approx(
        success_probability(*spec.references)
    )


def test_analytic_success_product_rule():
    refs = (0.5, 2.0, -1.5j)
    spec = SearchSpec(refs, 0.5)
    expected = click_probability(spec.c * (0.5 - 2.0)) * click_probability(
        spec.c * (0.5 + 1.5j)
    )
    assert analytic_success_probability(spec) == pytest.approx(expected)


@pytest.mark.parametrize(
    "refs, data, mode",
    [((0.5, 2.0, -1.5j, 1.5 - 0.5j), -1.5j, DILATION), ((-1.5j, 0.3 + 0.4j), -1.5j, EXPLICIT)],
    ids=["dilation", "explicit"],
)
def test_analytic_success_is_the_product_over_the_forward_pass(refs, data, mode):
    spec = SearchSpec(refs, data, mode=mode)
    expected = 1.0
    for j in range(1, spec.n + 1):
        if j != spec.match:
            expected *= click_probability(spec.outputs[j])
    # Bit for bit; the closed form c * (data - ref) differs here in the last bits.
    assert analytic_success_probability(spec) == expected


def test_analytic_success_raises_when_the_forward_pass_overflows():
    # Every input is finite, but port 2 carries c * 3.4e308.
    spec = SearchSpec((-1.7e308, 1.7e308), -1.7e308)
    with pytest.raises(NonFiniteError, match="^propagated amplitudes overflow$"):
        analytic_success_probability(spec)


def test_analytic_success_unmatched_data_is_nan():
    spec = SearchSpec((1.0, 2.0), 3.0)
    assert np.isnan(analytic_success_probability(spec))


def test_analytic_success_does_not_overflow_on_a_search_that_runs():
    # data - ref overflows, but port 2 carries a finite 1.15e308.
    spec = SearchSpec((1e308, -1e308), 1e308)
    assert analytic_success_probability(spec) == 1.0
    assert run_search(spec, seed=0, trials=3).identified.tolist() == [1, 1, 1]


# --- synthesized search circuit ----------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_search_circuit_element_count(n):
    circuit = search_circuit(n)
    assert circuit.width == 2 * (n + 1)
    assert circuit.beamsplitter_count == (n + 1) * (2 * n + 1)


def test_search_circuit_compiles_to_dilated_unitary():
    circuit = search_circuit(2)
    u = dilate(comparison_map(2))
    assert max_abs(compile_circuit(circuit) - u) <= 1e-9


# --- Bell-cat feasibility ------------------------------------------------------


def test_bellcat_identity_pattern_is_feasible():
    alpha = 0.8
    result = bellcat_feasibility((-alpha, -alpha), (alpha, alpha), alpha)
    assert result.feasible
    k = result.contraction
    assert np.allclose(k @ np.array([-alpha, -alpha]), [-alpha, -alpha], atol=1e-12)
    assert np.allclose(k @ np.array([alpha, alpha]), [alpha, alpha], atol=1e-12)
    assert result.kernel_residual <= 1e-10


def test_bellcat_independent_unit_vectors():
    result = bellcat_feasibility((1.0, 0.0), (0.0, 1.0), 0.4)
    assert result.feasible
    assert np.allclose(result.contraction, 0.4 * np.array([[-1, 1], [-1, 1]]))
    assert result.max_alpha == pytest.approx(0.5)

    too_big = bellcat_feasibility((1.0, 0.0), (0.0, 1.0), 0.6)
    assert not too_big.feasible
    assert too_big.contraction is None
    assert too_big.max_alpha == pytest.approx(0.5)


def test_bellcat_dependent_requires_opposite_vectors():
    v = (1 + 1j, 2.0)
    same = bellcat_feasibility(v, v, 0.5)
    assert not same.feasible

    opposite = bellcat_feasibility(v, (-v[0], -v[1]), 0.5)
    assert opposite.feasible
    assert opposite.max_alpha == pytest.approx(np.sqrt(6) / np.sqrt(2))
    assert opposite.kernel_residual <= 1e-10


def test_bellcat_dependent_amplitude_bound():
    v = (1.0, 0.0)  # |v| = 1, bound sqrt(2)|alpha| <= 1
    ok = bellcat_feasibility(v, (-1.0, 0.0), 0.7)
    assert ok.feasible
    too_big = bellcat_feasibility(v, (-1.0, 0.0), 0.71)
    assert not too_big.feasible


def test_bellcat_zero_inputs():
    assert not bellcat_feasibility((0, 0), (0, 0), 1.0).feasible
    trivial = bellcat_feasibility((0, 0), (0, 0), 0.0)
    assert trivial.feasible
    assert not bellcat_feasibility((0, 0), (1.0, 0), 0.3).feasible


def test_bellcat_kernel_condition_on_random_feasible_queries():
    rng = np.random.default_rng(41)
    found = 0
    for _ in range(200):
        v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        result = bellcat_feasibility(tuple(v1), tuple(v2), 0.3 * rng.random())
        if result.feasible:
            found += 1
            assert result.kernel_residual <= 1e-10
            assert np.max(np.abs(result.contraction @ (v1 + v2))) <= 1e-10
    assert found > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-300, 1e-100, 1.0, 1e100, 1e300])
@pytest.mark.parametrize("v2", [(0.4, -1.1 + 0.2j), (-1.0, -0.7j)], ids=["independent", "anti"])
def test_bellcat_kernel_residual_is_scale_free(scale, v2):
    v1 = np.array([1.0, 0.7j]) * scale
    v2 = np.array(v2) * scale
    bound = bellcat_feasibility(tuple(v1), tuple(v2), 0.0)
    assert bound.kernel_residual == 0.0
    alpha = 0.6 * bound.max_alpha * np.exp(0.4j)
    result = bellcat_feasibility(tuple(v1), tuple(v2), alpha)
    assert result.feasible and result.kernel_residual <= 1e-14
    target = alpha * np.array(BELL_TARGETS["B00"])
    assert np.max(np.abs(result.contraction @ v1 - target)) <= 1e-14 * abs(alpha)


def test_bellcat_kernel_residual_on_a_near_antiparallel_pair():
    v1 = np.array([1.0, 0.5j])
    v2 = -v1 + 1e-13 * np.array([1.0, 1.0])
    result = bellcat_feasibility(tuple(v1), tuple(v2), 0.3)
    assert result.feasible and result.kernel_residual <= 1e-12
    assert np.max(np.abs(result.contraction @ (v1 + v2))) / 0.3 <= 1e-12


def test_bellcat_rejects_a_map_past_the_float_range():
    # The map's K v1 is about 1e299 where alpha t1 is about 3e-301: the
    # residual of its equations is far beyond the float range.
    v1, v2 = (1e300, 3e299), (2e-301j, 1e-300)
    bound = bellcat_feasibility(v1, v2, 0.0).max_alpha
    with pytest.raises(SynthesisError, match="residual inf above 1e-09, condition number"):
        bellcat_feasibility(v1, v2, 0.5 * bound)


def _exact_residual(k, v1, v2, alpha, t1) -> Fraction:
    """max(|K v1 - alpha t1|, |K v2 + alpha t1|)^2 / |alpha|^2 in rationals."""
    parts = lambda z: (Fraction(z.real), Fraction(z.imag))  # noqa: E731
    ar, ai = parts(complex(alpha))
    worst = Fraction(0)
    for v, sign in ((v1, 1), (v2, -1)):
        for row, t in zip(k, t1):
            re, im = -sign * t * ar, -sign * t * ai
            for (p, q), (x, y) in zip(map(parts, row), map(parts, v)):
                re, im = re + p * x - q * y, im + p * y + q * x
            worst = max(worst, re * re + im * im)
    return worst / (ar * ar + ai * ai)


def test_bellcat_feasible_maps_meet_both_equations_at_every_scale_ratio():
    # Past a ratio |v1| / |v2| of about 1e5 a double-precision map can miss
    # its equations by more than 1e-9; such queries must be refused.
    rng = np.random.default_rng(77)
    feasible = refused = 0
    for ratio in 10.0 ** np.r_[0:10, 10:301:10]:
        for _ in range(30):
            v1, v2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            v1 = v1 * ratio
            label = rng.choice(sorted(BELL_TARGETS))
            bound = bellcat_feasibility(v1, v2, 0.0, label).max_alpha
            alpha = bound * rng.uniform(0.1, 1.0) * np.exp(2j * np.pi * rng.random())
            try:
                result = bellcat_feasibility(v1, v2, alpha, label)
            except SynthesisError as exc:
                assert "condition number of [v1 v2]" in str(exc)
                assert ratio > 1.0
                refused += 1
                continue
            k, t1 = result.contraction, BELL_TARGETS[label]
            # Row 1 of K = alpha t1 r is exactly t1[0] t1[1] times row 0.
            assert np.array_equal(k[1], t1[0] * t1[1] * k[0])
            exact = _exact_residual(k, v1, v2, alpha, t1)
            assert exact <= Fraction(1e-9) ** 2
            assert result.kernel_residual == pytest.approx(math.sqrt(exact), rel=1e-12, abs=0)
            feasible += 1
    assert feasible > 100 and refused > 100


def test_bellcat_alternative_target_pattern():
    alpha = 0.3
    result = bellcat_feasibility((1.0, 0.0), (0.0, 1.0), alpha, bell_state="B01")
    assert result.feasible
    k = result.contraction
    assert np.allclose(k @ np.array([1.0, 0.0]), [-alpha, alpha], atol=1e-12)
    assert np.allclose(k @ np.array([0.0, 1.0]), [alpha, -alpha], atol=1e-12)


def test_bellcat_unknown_target_rejected():
    with pytest.raises(ValueError):
        bellcat_feasibility((1, 0), (0, 1), 0.1, bell_state="B22")


@pytest.mark.parametrize(
    "v1, v2, alpha",
    [
        ((np.nan, 0), (0, 1), 0.1),
        ((1, 0), (0, np.inf), 0.1),
        ((1, 0), (0, 1), complex(0, np.nan)),
        ((1.7e308 + 1.7e308j, 0), (0, 1), 0.1),  # |v1| overflows
    ],
    ids=["v10-v20-0.1", "v11-v21-0.1", "v12-v22-nanj", "v13-v23-0.1"],
)
def test_bellcat_rejects_non_finite_inputs(v1, v2, alpha):
    with pytest.raises(NonFiniteError):
        bellcat_feasibility(v1, v2, alpha)


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
def test_bellcat_is_scale_covariant(scale):
    # Scaling both inputs by s scales max_alpha by s and K by 1/s.
    v1, v2 = np.array([1.0, 0.5j]), np.array([-0.25, 2.0])
    unit = bellcat_feasibility(v1, v2, 0.1)
    scaled = bellcat_feasibility(scale * v1, scale * v2, 0.1)
    assert scaled.max_alpha == pytest.approx(unit.max_alpha * scale, rel=1e-12)
    assert scaled.feasible == (0.1 <= unit.max_alpha * scale)
    if scaled.feasible:
        assert np.allclose(scaled.contraction * scale, unit.contraction, rtol=1e-12, atol=0)
    anti_unit = bellcat_feasibility(v1, -v1, 0.1)
    anti = bellcat_feasibility(scale * v1, -scale * v1, 0.1 * scale)
    assert anti.feasible
    assert anti.max_alpha == pytest.approx(scale * anti_unit.max_alpha, rel=1e-12)
    assert np.allclose(anti.contraction, anti_unit.contraction, rtol=1e-12, atol=0)


def test_bellcat_maps_onto_opposite_targets_for_every_label():
    rng = np.random.default_rng(8)
    v1, v2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for label, t1 in BELL_TARGETS.items():
        result = bellcat_feasibility(v1, v2, 0.1 + 0.05j, bell_state=label)
        assert result.feasible
        target = (0.1 + 0.05j) * np.array(t1)
        assert np.allclose(result.contraction @ v1, target, atol=1e-12)
        assert np.allclose(result.contraction @ v2, -target, atol=1e-12)


def test_bellcat_max_alpha_is_the_closed_form():
    # |det[v1 v2]| / (sqrt(2) |v1 + v2|) for independent inputs.
    rng = np.random.default_rng(12)
    for _ in range(50):
        v1, v2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        det = v1[0] * v2[1] - v1[1] * v2[0]
        expected = abs(det) / (np.sqrt(2) * np.linalg.norm(v1 + v2))
        result = bellcat_feasibility(v1, v2, 0.0)
        assert result.max_alpha == pytest.approx(expected, rel=1e-12)


def test_bellcat_takes_no_inverse_and_no_svd(monkeypatch):
    # The realizing map is rank one, so neither a matrix inverse nor an SVD
    # is needed to build it or to find its singular value.
    calls = []
    for name in ("inv", "svd", "pinv"):
        wrapped = getattr(np.linalg, name)
        record = lambda *a, _f=wrapped, _n=name, **kw: calls.append(_n) or _f(*a, **kw)
        monkeypatch.setattr(np.linalg, name, record)
    queries = [
        ((1.0, 0.5j), (-0.25, 2.0), 0.3),  # independent, feasible
        ((1.0, 0.5j), (-0.25, 2.0), 3.0),  # independent, infeasible
        ((1 + 1j, 2.0), (-1 - 1j, -2.0), 0.5),  # anti-parallel
        ((1.0, 2.0), (2.0, 4.0), 0.0),  # dependent, zero map
    ]
    for query in queries:
        bellcat_feasibility(*query)
    assert calls == []


def test_bellcat_rejects_three_mode_vectors():
    with pytest.raises(DimensionError):
        bellcat_feasibility((1.0, 0.0, 0.0), (0.0, 1.0), 0.1)


# Each protocol gate at its last accepted double and its first rejected one.


def test_search_scale_gate_accepts_c_max_plus_1e12():
    edge = max_comparison_scale(2) + 1e-12
    assert SearchSpec((0, 1), 0, c=edge).c == edge
    assert SearchSpec((0, 1), 0, c=-edge).c == -edge
    with pytest.raises(ContractionError, match="exceeds the contraction bound"):
        SearchSpec((0, 1), 0, c=math.nextafter(edge, 1))


def test_explicit_mode_scale_gate_edge():
    # scale - 1/sqrt(3) is exact, a multiple of 2**-53, so it never equals
    # 1e-12: the edge is the smallest scale within 1e-12 of 1/sqrt(3).
    c2 = max_comparison_scale(2)
    edge = c2 - 1e-12
    while abs(edge - c2) > 1e-12:
        edge = math.nextafter(edge, 1)
    while abs(math.nextafter(edge, 0) - c2) <= 1e-12:
        edge = math.nextafter(edge, 0)
    assert SearchSpec((0, 1), 0, c=edge, mode=EXPLICIT).c == edge
    with pytest.raises(SynthesisError, match="fixes the comparison scale"):
        SearchSpec((0, 1), 0, c=math.nextafter(edge, 0), mode=EXPLICIT)


def test_bellcat_dependence_gate_edge(monkeypatch):
    # The rows of w are v1 and v2 themselves, of norm 0.5 each, and
    # det[v1 v2] = 2**-42, so the gate sits exactly at a tolerance of 2**-40.
    v1, v2 = (0.5, 0), (0.5, 2.0**-41)
    monkeypatch.setattr(protocols, "_DEPENDENCE_TOL", 2.0**-40)
    dependent = bellcat_feasibility(v1, v2, 0.1)  # parallel, not anti-parallel
    assert (dependent.feasible, dependent.max_alpha) == (False, 0.0)
    monkeypatch.setattr(protocols, "_DEPENDENCE_TOL", math.nextafter(2.0**-40, 0))
    independent = bellcat_feasibility(v1, v2, 0.1)
    assert not independent.feasible and independent.max_alpha > 0


def test_bellcat_anti_parallel_gate_edge(monkeypatch):
    # det[v1 v2] = 0, and |v1 + v2| = 2**-42 = 2**-41 max(|v1|, |v2|) exactly.
    v1, v2 = (0.5 - 2.0**-42, 0), (-0.5, 0)
    monkeypatch.setattr(protocols, "_DEPENDENCE_TOL", 2.0**-41)
    anti = bellcat_feasibility(v1, v2, 0.1)
    assert anti.feasible and anti.max_alpha == pytest.approx(0.5 / math.sqrt(2))
    monkeypatch.setattr(protocols, "_DEPENDENCE_TOL", math.nextafter(2.0**-41, 0))
    parallel = bellcat_feasibility(v1, v2, 0.1)
    assert (parallel.feasible, parallel.max_alpha) == (False, 0.0)


def test_bellcat_feasibility_slack_edge():
    max_alpha = bellcat_feasibility((1, 0), (0, 1), 0.4).max_alpha
    edge = max_alpha * (1.0 + protocols._FEASIBILITY_SLACK)
    assert edge > max_alpha
    assert bellcat_feasibility((1, 0), (0, 1), edge).feasible
    assert not bellcat_feasibility((1, 0), (0, 1), math.nextafter(edge, 1)).feasible


def test_bellcat_residual_limit_edge(monkeypatch):
    v1, v2 = (1, 0.3), (0.2, 1)
    residual = bellcat_feasibility(v1, v2, 0.1).kernel_residual
    assert 0 < residual <= protocols._RESIDUAL_LIMIT
    monkeypatch.setattr(protocols, "_RESIDUAL_LIMIT", residual)
    assert bellcat_feasibility(v1, v2, 0.1).kernel_residual == residual
    monkeypatch.setattr(protocols, "_RESIDUAL_LIMIT", math.nextafter(residual, 0))
    with pytest.raises(SynthesisError, match="no double-precision map meets both"):
        bellcat_feasibility(v1, v2, 0.1)
