"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np

from cohcirc import (
    SearchSpec,
    apply_circuit,
    bellcat_feasibility,
    BellcatQuery,
    comparison_map,
    compile_circuit,
    dilate,
    generate_phase_states,
    is_unitary,
    mean_photon_number,
    random_unitary,
    reck_decompose,
    restore,
    run_search,
    search_circuit,
    search_unitary_explicit,
    spectral_norm,
    success_probability,
)
from cohcirc.linalg import max_abs, unitarity_defect
from cohcirc.protocols import DILATION, EXPLICIT
from conftest import random_amplitudes, random_circuit, random_contraction


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_identification_unitary():
    u = search_unitary_explicit()
    is_unitary(u, 1e-10)  # warm-up outside the timed region
    t0 = time.perf_counter()
    ok = is_unitary(u, 1e-10)
    elapsed = time.perf_counter() - t0
    report(
        "1 identification matrix unitary within 1e-10 in <1ms",
        ok and elapsed < 1e-3,
        f"defect={unitarity_defect(u):.2e}, {elapsed * 1e6:.0f}us",
    )


def test_criterion_02_comparison_scale_bound():
    sigma = spectral_norm(comparison_map(2, 1.0))
    err = abs(sigma - math.sqrt(3))
    report("2 unscaled comparison map has norm sqrt(3) within 1e-12", err <= 1e-12,
           f"|sigma - sqrt(3)| = {err:.2e}")


def test_criterion_03_photon_number_invariant():
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(100):
        width = 2 + i % 11  # widths 2..12
        circuit = random_circuit(rng, width, 25)
        vec = random_amplitudes(rng, width)
        before = mean_photon_number(vec)
        after = mean_photon_number(apply_circuit(circuit, vec))
        worst = max(worst, abs(after - before) / (1 + before))
    report("3 photon number conserved by 100 random unitary circuits", worst <= 1e-10,
           f"worst relative drift = {worst:.2e}")


def test_criterion_04_triangular_decomposition_roundtrip():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        size = 2 + i % 11  # sizes 2..12
        u = random_unitary(size, rng)
        circuit = reck_decompose(u)
        assert circuit.beamsplitter_count <= size * (size - 1) // 2
        worst = max(worst, max_abs(compile_circuit(circuit) - u))
    elapsed = time.perf_counter() - t0
    report(
        "4 decomposition round-trip <=1e-9 on 100 unitaries in <5s",
        worst <= 1e-9 and elapsed < 5.0,
        f"worst residual = {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_05_dilation():
    rng = np.random.default_rng(105)
    worst_defect = 0.0
    worst_corner = 0.0
    for i in range(50):
        size = int(rng.integers(1, 9))
        sigma = 1.0 if i < 5 else 0.1 + 0.9 * rng.random()
        k = random_contraction(rng, size, sigma)
        u, _ = dilate(k)
        worst_defect = max(worst_defect, unitarity_defect(u))
        worst_corner = max(worst_corner, max_abs(u[:size, :size] - k))
    report(
        "5 dilation of 50 random contractions: unitary 1e-10, corner 1e-12",
        worst_defect <= 1e-10 and worst_corner <= 1e-12,
        f"worst defect = {worst_defect:.2e}, worst corner error = {worst_corner:.2e}",
    )


def test_criterion_06_element_count_formula():
    counts = {}
    for n in (2, 3, 4, 5):
        circuit, _ = search_circuit(n)
        counts[n] = circuit.beamsplitter_count
    expected = {n: (n + 1) * (2 * n + 1) for n in counts}
    report(
        "6 search circuits use exactly (N+1)(2N+1) beamsplitters for N=2..5",
        counts == expected,
        f"counts = {sorted(counts.values())}",
    )


def test_criterion_07_success_probability():
    trials = 100_000
    t0 = time.perf_counter()
    details = []
    ok = True
    for case, dist_sq in enumerate((1.0, 3.0, 9.0)):
        d = math.sqrt(dist_sq)
        specs = (SearchSpec((0.0, d), 0.0), SearchSpec((0.0, d), d))
        base = 1_000_000 * (case + 1)
        hits = 0
        for t in range(trials):
            # equal priors: alternate which reference the datum matches
            spec, truth = (specs[0], 1) if t % 2 == 0 else (specs[1], 2)
            hits += run_search(spec, seed=base + t).identified == truth
        p = success_probability(0.0, d)
        bound = 4 * math.sqrt(p * (1 - p) / trials)
        err = abs(hits / trials - p)
        ok &= err <= bound
        details.append(f"|{err:.2e}|<={bound:.2e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(
        "7 empirical success within 4 sigma of 1-exp(-d^2/3) at d^2=1,3,9",
        ok,
        ", ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_08_restoration():
    rng = np.random.default_rng(108)
    worst = 0.0
    for i in range(100):
        refs = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        data = refs[i % 2] if i % 3 else rng.standard_normal() + 1j * rng.standard_normal()
        spec = SearchSpec(refs, data, mode=EXPLICIT if i % 2 == 0 else DILATION)
        outcome = run_search(spec, seed=int(rng.integers(1 << 30)))
        restored = restore(outcome, spec)
        expected = np.concatenate([np.conj([spec.data, *spec.references]), np.zeros(3)])
        worst = max(worst, float(np.max(np.abs(restored - expected))))
    report(
        "8 restore after search returns the inputs within 1e-10, both modes",
        worst <= 1e-10,
        f"worst residual = {worst:.2e}",
    )


def test_criterion_09_phase_states():
    alpha = 0.8 - 0.3j
    worst = 0.0
    worst_photon = 0.0
    for n in (2, 3, 4, 8):
        starred = generate_phase_states(n, alpha)
        expected = alpha * np.exp(2j * np.pi * np.arange(n) / n)
        worst = max(worst, float(np.max(np.abs(np.conj(starred) - expected))))
        photons = mean_photon_number(starred)
        worst_photon = max(
            worst_photon, abs(photons - n * abs(alpha) ** 2) / (1 + n * abs(alpha) ** 2)
        )
    report(
        "9 phase states alpha*exp(2*pi*i*k/N) within 1e-12 for N=2,3,4,8",
        worst <= 1e-12 and worst_photon <= 1e-10,
        f"worst amplitude error = {worst:.2e}, photon drift = {worst_photon:.2e}",
    )


def _oracle_bellcat(v1, v2, alpha):
    """Closed-form feasibility oracle: explicit 2x2 inversion and the
    largest singular value from the characteristic polynomial."""
    t1 = (-alpha, -alpha)
    t2 = (alpha, alpha)
    n1 = math.hypot(abs(v1[0]), abs(v1[1]))
    n2 = math.hypot(abs(v2[0]), abs(v2[1]))
    if n1 == 0.0 or n2 == 0.0:
        return alpha == 0
    det = v1[0] * v2[1] - v1[1] * v2[0]
    if abs(det) <= 1e-12 * n1 * n2:
        # dependent: v2 = lam*v1 is feasible only for lam = -1
        pivot = 0 if abs(v1[0]) >= abs(v1[1]) else 1
        lam = v2[pivot] / v1[pivot]
        if alpha == 0:
            return True
        if abs(lam + 1.0) > 1e-12 * max(abs(lam), 1.0):
            return False
        return math.sqrt(2) * abs(alpha) <= n1 * (1 + 1e-12)
    inv = np.array([[v2[1], -v2[0]], [-v1[1], v1[0]]], dtype=complex) / det
    k = np.array([[t1[0], t2[0]], [t1[1], t2[1]]], dtype=complex) @ inv
    h = k @ k.conj().T
    tr = h[0, 0].real + h[1, 1].real
    dt = (h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]).real
    lam_max = (tr + math.sqrt(max(tr * tr - 4 * dt, 0.0))) / 2
    return math.sqrt(max(lam_max, 0.0)) <= 1 + 1e-12


def test_criterion_10_bellcat_checker_vs_oracle():
    rng = np.random.default_rng(110)
    mismatches = 0
    worst_kernel = 0.0
    dependent_ok = True
    for i in range(1000):
        v1 = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        roll = rng.random()
        if roll < 0.25:
            v2 = (-v1[0], -v1[1])
        elif roll < 0.35:
            v2 = v1
        elif roll < 0.45:
            lam = complex(*rng.standard_normal(2))
            v2 = (lam * v1[0], lam * v1[1])
        else:
            v2 = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        alpha = 0.0 if roll > 0.95 else complex(*(0.8 * rng.standard_normal(2)))
        result = bellcat_feasibility(BellcatQuery(v1, v2, alpha))
        if result.feasible != _oracle_bellcat(v1, v2, alpha):
            mismatches += 1
        if result.feasible:
            worst_kernel = max(worst_kernel, result.kernel_residual)
        det = v1[0] * v2[1] - v1[1] * v2[0]
        if abs(det) <= 1e-12 and alpha != 0:
            # dependent-case verdict must match the v1 = -v2 rule (up to
            # the amplitude bound)
            lam = v2[0] / v1[0] if abs(v1[0]) >= abs(v1[1]) else v2[1] / v1[1]
            if abs(lam + 1.0) > 1e-9 and result.feasible:
                dependent_ok = False
    report(
        "10 bellcat verdicts match the closed-form oracle on 1000 queries",
        mismatches == 0 and worst_kernel <= 1e-10 and dependent_ok,
        f"mismatches={mismatches}, worst kernel residual={worst_kernel:.2e}",
    )
