"""Tests of the benchmark itself: its checks, its arithmetic and its tracer.

Run with ``python3 benchmarks/selftest.py`` (or ``python3 -m pytest
benchmarks/selftest.py``).  The file name keeps it out of the repository's
test collection.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


@pytest.fixture
def cli():
    return run.load_cli()


def _capture(cli, op):
    elapsed, capture = run.run_op(cli, op)
    assert capture.codes == op.expect, capture.stderr
    return capture


def test_percentile_interpolates_between_ranks():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert run.percentile(range(1, 11), 90) == pytest.approx(9.1)
    assert run.percentile([7.0], 90) == 7.0
    assert run.percentile([1.0, 2.0, 3.0], 0) == 1.0
    assert run.percentile([1.0, 2.0, 3.0], 100) == 3.0


def test_latency_metrics_take_each_operation_at_its_median():
    # Three rounds of (1, 2, 4) s; one stall of 100 s in the second round.
    latencies = [1.0, 2.0, 4.0, 1.0, 102.0, 4.0, 1.0, 2.0, 4.0]
    metrics = run.latency_metrics(latencies, 3)
    assert metrics["op_p50_ms"] == 2000.0
    assert metrics["op_p90_ms"] == pytest.approx(3600.0)
    assert metrics["ops_per_s"] == 3 / 7.0
    # A slower operation in every round moves them.
    assert run.latency_metrics([x * 2 for x in latencies], 3)["op_p50_ms"] == 4000.0


def test_span_self_and_layer_times():
    # cli.main [0,100] -> linalg.is_unitary [10,40] -> linalg.unitarity_defect [15,35]
    #                  -> synthesis.reck_decompose [50,90] -> linalg.unitarity_defect [60,70]
    names = ["cli.main", "linalg.is_unitary", "linalg.unitarity_defect",
             "synthesis.reck_decompose"]
    name = [0, 1, 2, 3, 2]
    start = [0, 10, 15, 50, 60]
    end = [100, 40, 35, 90, 70]
    parent = [-1, 0, 1, 0, 3]
    stats = tracing.span_stats(names, name, start, end, parent)
    assert stats["cli.main"] == {"calls": 1, "total_ns": 100, "self_ns": 30, "outer_ns": 100}
    assert stats["linalg.is_unitary"]["self_ns"] == 10
    assert stats["linalg.unitarity_defect"] == {
        "calls": 2, "total_ns": 30, "self_ns": 30, "outer_ns": 10}
    assert stats["synthesis.reck_decompose"]["self_ns"] == 30
    metrics = tracing.layer_metrics(stats, {"synthesis.elements": 6}, ops=2)
    assert metrics["cli.self_ms_per_op"] == 15 / 1e6
    # linalg: is_unitary (30, with its nested defect) + the defect inside reck (10)
    assert metrics["linalg.ms_per_op"] == 20 / 1e6
    assert metrics["synthesis.reck_ms_per_op"] == 15 / 1e6
    assert metrics["synthesis.reck_ns_per_element"] == 5
    assert metrics["synthesis.elements_per_op"] == 3
    assert "engine.apply_circuit_ms_per_op" not in metrics  # layer made no call


def test_declared_metrics_match_what_the_runner_reports():
    with open(run.SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    every_span = {span: {"calls": 1, "total_ns": 1.0, "self_ns": 1.0, "outer_ns": 1.0}
                  for _, _, span in tracing.TARGETS}
    every_count = dict.fromkeys(("formats.bytes", "synthesis.elements",
                                 "synthesis.compiled_elements", "engine.elements_applied",
                                 "detection.draws", "protocols.identified"), 1)
    reported = set(tracing.layer_metrics(every_span, every_count, ops=1))
    reported |= {"trials_per_s", "trace.overhead_ratio"}
    assert reported == {m["name"] for m in spec["per_layer"]}


def test_tracer_records_nesting_and_restores(cli, tmp_path):
    import cohcirc.linalg

    original = cohcirc.linalg.unitarity_defect
    case = workloads.mesh_case(np.random.default_rng(0), tmp_path, "t", "unitary", 4, 1)
    op = workloads.synth_run_op(case)
    tracer = tracing.Tracer()
    tracer.install(sys.modules)
    try:
        tracer.op_id = 0
        capture = _capture(cli, op)
    finally:
        tracer.uninstall()
    assert cohcirc.linalg.unitarity_defect is original
    assert op.check(capture) is None
    names = [tracer.names[i] for i in tracer.name]
    parents = list(tracer.parent)
    assert names.count("cli.main") == 2
    reck = names.index("synthesis.reck_decompose")
    assert names[parents[reck]] == "cli.main"
    # reck_decompose checks unitarity through the module attribute
    assert any(names[p] == "synthesis.reck_decompose" and n == "linalg.unitarity_defect"
               for n, p in zip(names, parents) if p >= 0)
    assert tracer.counts["synthesis.elements"] == len(capture.files[case.circuit_path]
                                                      .decode().splitlines()) - 1
    path = tmp_path / "spans.csv.gz"
    tracer.write_spans(path)
    assert path.stat().st_size > 0


def test_perturbed_amplitude_fails_the_mesh_check(cli, tmp_path):
    case = workloads.mesh_case(np.random.default_rng(1), tmp_path, "p", "dilation", 3, 1)
    op = workloads.synth_run_op(case)
    capture = _capture(cli, op)
    assert op.check(capture) is None
    lines = capture.stdout[1].splitlines()
    port, re_, im, pre, pim = lines[2].split()
    bumped = f"{float(re_) + 1e-6:+.12e}"
    lines[2] = "  ".join([port, bumped, im, f"{float(bumped):+.12e}", pim])
    capture.stdout[1] = "\n".join(lines) + "\n"
    assert "differs from K @ a" in op.check(capture)


def test_flipped_click_fails_the_search_check(cli, tmp_path):
    rng = np.random.default_rng(2)
    op = workloads.search_op(rng, tmp_path, "f", workloads.pair(rng, 3.0), 1, 50,
                             clicks=True, z_limit=None)
    capture = _capture(cli, op)
    assert op.check(capture) is None

    out, clicks = op.outputs
    records = capture.files[out].decode().splitlines()
    trial, identified, ports, p = records[5].split(",")
    flipped = "" if ports == "3" else "3"  # port 3 is the second comparison port
    records[5] = ",".join([trial, "1" if flipped else "", flipped, p])
    bad = checks.Capture(capture.codes, capture.stdout, capture.stderr,
                         {**capture.files, out: ("\n".join(records) + "\n").encode()})
    assert "trial 4" in op.check(bad)

    rows = capture.files[clicks].decode().splitlines()
    t, port, clicked = rows[7].split(",")
    rows[7] = ",".join([t, port, str(1 - int(clicked))])
    bad = checks.Capture(capture.codes, capture.stdout, capture.stderr,
                         {**capture.files, clicks: ("\n".join(rows) + "\n").encode()})
    assert "click record" in op.check(bad)


def test_verifier_counts_wrong_codes_and_changed_outputs():
    op = workloads.Op("x", [["qkd"]], [0], lambda capture: None)
    good = checks.Capture([0], ["a"], [""], {})
    verifier = run.Verifier()
    verifier.record(0, op, good)
    verifier.record(0, op, checks.Capture([0], ["b"], [""], {}))
    verifier.record(0, op, checks.Capture([1], ["a"], ["error: x"], {}))
    assert (verifier.attempted, verifier.failed) == (3, 2)
    fresh = run.Verifier()
    fresh.record(0, op, checks.Capture([1], ["a"], ["error: x"], {}))
    assert "exit codes [1]" in fresh.reasons[0]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
