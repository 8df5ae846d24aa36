import functools
import math
import os
import re
import resource
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cohcirc import (
    Circuit,
    SearchSpec,
    cli,
    comparison_map,
    compile_circuit,
    formats,
    random_unitary,
    reck_decompose,
    run_search,
    search_unitary_explicit,
)
from cohcirc.cli import main
from cohcirc.detection import click_probability
from cohcirc.formats import read_circuit, read_matrix
from cohcirc.linalg import max_abs
from conftest import (
    format_amplitudes,
    format_matrix,
    random_amplitudes,
    random_contraction,
    search_csv_texts,
)


def test_synth_identity(tmp_path, capsys):
    matrix_file = tmp_path / "m.txt"
    circuit_file = tmp_path / "c.txt"
    matrix_file.write_text(format_matrix(np.eye(4)))
    assert main(["synth", str(matrix_file), str(circuit_file)]) == 0
    out = capsys.readouterr().out
    assert "beamsplitters=0" in out
    assert read_circuit(circuit_file).elements == ()


def test_synth_search_unitary(tmp_path, capsys):
    matrix_file = tmp_path / "m.txt"
    circuit_file = tmp_path / "c.txt"
    matrix_file.write_text(format_matrix(search_unitary_explicit()))
    assert main(["synth", str(matrix_file), str(circuit_file)]) == 0
    out = capsys.readouterr().out
    assert "route=unitary" in out
    circuit = read_circuit(circuit_file)
    assert circuit.beamsplitter_count <= 15
    residual = float(out.split("residual=")[1].split()[0])
    assert residual <= 1e-9


def test_synth_contraction_goes_through_dilation(tmp_path, capsys):
    matrix_file = tmp_path / "m.txt"
    circuit_file = tmp_path / "c.txt"
    matrix_file.write_text(format_matrix(comparison_map(2)))
    assert main(["synth", str(matrix_file), str(circuit_file)]) == 0
    out = capsys.readouterr().out
    assert "route=dilation" in out
    assert read_circuit(circuit_file).width == 6


def test_synth_rejects_expanding_matrix(tmp_path, capsys):
    matrix_file = tmp_path / "m.txt"
    matrix_file.write_text(format_matrix(np.diag([1.4, 0.2])))
    assert main(["synth", str(matrix_file), str(tmp_path / "c.txt")]) == 2


NOT_A_CONTRACTION = "error: input is neither unitary nor a contraction (largest singular value "


@pytest.mark.parametrize(
    "matrix, code, out, err",
    [
        (1.25 * random_unitary(4, np.random.default_rng(5)), 2, [], [NOT_A_CONTRACTION + "1.25)"]),
        ([[1.5, 0, 0], [0, 0.5, 0]], 2, [], [NOT_A_CONTRACTION + "1.5)"]),
        (
            [[0.6, 0.6]],
            0,
            [
                "dilated 1x2 contraction into a 3-mode unitary; signal outputs on ports 1..1",
                "route=dilation modes=3 beamsplitters=3 phase_shifters=1 residual=",
            ],
            [],
        ),
        (
            [[0.6, 0]],
            0,
            [
                "dilated 1x2 contraction into a 3-mode unitary; signal outputs on ports 1..1",
                "route=dilation modes=3 beamsplitters=2 phase_shifters=1 residual=",
            ],
            [],
        ),
        ([[1e308]], 2, [], [NOT_A_CONTRACTION + "1e+308)"]),
        # sigma^2 - 1 would exceed tol, so the dilation could not be unitary within it.
        ((1 + 9e-11) * np.eye(2), 2, [], [NOT_A_CONTRACTION + "1.00000000009)"]),
    ],
    ids=[
        "scaled-unitary",
        "wide-expansion",
        "dense-wide-contraction",
        "wide-contraction",
        "huge-scalar",
        "near-unit-expansion",
    ],
)
@pytest.mark.filterwarnings("error")
def test_synth_route_and_rejection_lines_are_pinned(matrix, code, out, err, tmp_path, capsys):
    matrix_file = tmp_path / "m.txt"
    matrix_file.write_text(format_matrix(np.array(matrix, dtype=complex)))
    assert main(["synth", str(matrix_file), str(tmp_path / "c.txt")]) == code
    captured = capsys.readouterr()
    printed = captured.out.splitlines()
    if printed:  # the residual's last digits depend on the LAPACK build
        printed[-1] = printed[-1].partition("residual=")[0] + "residual="
    assert (printed, captured.err.splitlines()) == (out, err)


def test_dilation_synth_takes_one_svd(tmp_path, capsys, monkeypatch):
    # dilate's one SVD of K is both the contraction check and the source
    # of the complement roots, for square and rectangular K and on the
    # error path.
    cases = [
        (random_contraction(np.random.default_rng(6), 6, 0.9), 0, "route=dilation modes=12 "),
        (np.full((2, 5), 0.3), 0, "route=dilation modes=7 "),
        (np.diag([1.5, 0.2, 0.1]), 2, ""),
    ]
    svd = np.linalg.svd
    for matrix, code, printed in cases:
        matrix_file = tmp_path / "m.txt"
        matrix_file.write_text(format_matrix(np.asarray(matrix, dtype=complex)))
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(a) or svd(*a, **kw))
        assert main(["synth", str(matrix_file), str(tmp_path / "c.txt")]) == code
        assert printed in capsys.readouterr().out
        assert len(calls) == 1


def test_synth_prints_nothing_when_the_circuit_cannot_be_written(tmp_path, capsys):
    matrix_file = tmp_path / "m.txt"
    matrix_file.write_text(format_matrix(comparison_map(2)))
    assert main(["synth", str(matrix_file), str(tmp_path / "no" / "c.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_synth_rejects_garbage_file(tmp_path):
    bad = tmp_path / "m.txt"
    bad.write_text("not a matrix\n")
    assert main(["synth", str(bad), str(tmp_path / "c.txt")]) == 1


def test_run_echoes_through_empty_circuit(tmp_path, capsys):
    circuit_file = tmp_path / "c.txt"
    amps_file = tmp_path / "a.txt"
    circuit_file.write_text("width=2\n")
    amps_file.write_text(format_amplitudes(np.array([1.0, 0.0])))
    assert main(["run", str(circuit_file), str(amps_file)]) == 0
    out = capsys.readouterr().out
    assert "photon number: in=1 out=1" in out


def test_run_fifty_fifty_splitter(tmp_path, capsys):
    circuit_file = tmp_path / "c.txt"
    amps_file = tmp_path / "a.txt"
    circuit_file.write_text(f"width=2\nBS 0 1 {np.pi / 4:.17g} 0\n")
    amps_file.write_text(format_amplitudes(np.array([1.0, 0.0])))
    assert main(["run", str(circuit_file), str(amps_file)]) == 0
    out = capsys.readouterr().out
    assert "+7.071067811865e-01" in out  # starred outputs 1/sqrt(2), i/sqrt(2)
    assert "photon number: in=1 out=1" in out


def test_run_width_mismatch(tmp_path):
    circuit_file = tmp_path / "c.txt"
    amps_file = tmp_path / "a.txt"
    circuit_file.write_text("width=3\n")
    amps_file.write_text(format_amplitudes(np.array([1.0, 0.0])))
    assert main(["run", str(circuit_file), str(amps_file)]) == 2


def test_synth_then_run_matches_direct_application(tmp_path, capsys):
    rng = np.random.default_rng(60)
    u = random_unitary(5, rng)
    vec = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    matrix_file = tmp_path / "m.txt"
    circuit_file = tmp_path / "c.txt"
    amps_file = tmp_path / "a.txt"
    matrix_file.write_text(format_matrix(u))
    amps_file.write_text(format_amplitudes(vec))
    assert main(["synth", str(matrix_file), str(circuit_file)]) == 0
    capsys.readouterr()
    assert main(["run", str(circuit_file), str(amps_file)]) == 0
    lines = capsys.readouterr().out.splitlines()[1:6]
    starred = np.array(
        [complex(float(l.split()[1]), float(l.split()[2])) for l in lines]
    )
    assert np.max(np.abs(starred - u @ vec)) <= 1e-9


def test_run_after_synth_reuses_the_written_circuit(tmp_path, monkeypatch, capsys):
    # One process: ``run`` of the circuit ``synth`` just wrote neither parses its
    # text nor lowers it again, because ``formats`` keeps that circuit.
    rng = np.random.default_rng(61)
    matrix, circuit, amplitudes = (tmp_path / name for name in ("m.txt", "c.txt", "a.txt"))
    matrix.write_text(format_matrix(random_unitary(6, rng)))
    amplitudes.write_text(format_amplitudes(random_amplitudes(rng, 6)))
    contexts, lowered = [], []
    numbers, lower = formats._numbers, Circuit.__dict__["lowered"].func

    def spy_numbers(convert, tokens, context):
        contexts.append(context)
        return numbers(convert, tokens, context)

    def spy_lower(self):
        lowered.append(self)
        return lower(self)

    spied = functools.cached_property(spy_lower)
    spied.__set_name__(Circuit, "lowered")
    monkeypatch.setattr(formats, "_numbers", spy_numbers)
    monkeypatch.setattr(Circuit, "lowered", spied)
    assert main(["synth", str(matrix), str(circuit)]) == 0
    capsys.readouterr()
    runs = []
    for _ in range(2):
        assert main(["run", str(circuit), str(amplitudes)]) == 0
        runs.append(capsys.readouterr())
    assert [c for c in contexts if c.startswith("circuit")] == []
    assert len(lowered) == 1
    # Without the kept circuit the same run parses and lowers afresh, and prints the same.
    monkeypatch.setattr(formats, "_last_circuit", None)
    assert main(["run", str(circuit), str(amplitudes)]) == 0
    assert runs == [capsys.readouterr()] * 2
    assert "circuit" in contexts and len(lowered) == 2


def test_search_writes_deterministic_csv(tmp_path, capsys):
    out_file = tmp_path / "trials.csv"
    args = [
        "search",
        "--refs",
        f"0,0;{np.sqrt(3):.17g},0",
        "--data",
        "0,0",
        "--trials",
        "200",
        "--seed",
        "9",
        "--out",
        str(out_file),
    ]
    assert main(args) == 0
    first = out_file.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == "trial,identified,clicked_ports,p_succ_analytic"
    assert len(lines) == 201
    assert lines[1].endswith("0.632120558829")
    summary = capsys.readouterr().out
    assert "analytic_success=0.632121" in summary
    assert main(args) == 0
    assert out_file.read_bytes() == first


def test_search_click_records(tmp_path):
    clicks_file = tmp_path / "clicks.csv"
    args = [
        "search",
        "--refs",
        "0,0;3,0",
        "--data",
        "0,0",
        "--trials",
        "3",
        "--seed",
        "1",
        "--out",
        str(tmp_path / "trials.csv"),
        "--clicks-out",
        str(clicks_file),
    ]
    assert main(args) == 0
    lines = clicks_file.read_text().splitlines()
    assert lines[0] == "trial,port,clicked"
    assert len(lines) == 7  # two comparison ports per trial


EIGHT_REFS = ";".join(f"{k % 4 / 2},{k // 4 / 2}" for k in range(8))
TWELVE_REFS = ";".join(f"{k % 4 / 2},{k // 4 / 2}" for k in range(12))  # uint16 keys
# Ports 3..64 always click and port 2 never does; only ports 65 and 66, the
# 64th and 65th comparison ports, vary, so keys of 64 bits would merge rows.
BOUNDARY_REFS = ";".join(["0,0", *(f"{100 + k},0" for k in range(62)), "0,6.8", "6.8,0"])


@pytest.mark.parametrize(
    "refs, data, trials, blocks",
    [
        ("0,0;1.5,0;0,1.5", "0,1.5", 20, (cli.SEARCH_BLOCK, 7)),
        ("0,0;1.5,0", "0,0", 100_000, (cli.SEARCH_BLOCK,)),  # 13 blocks
        (EIGHT_REFS, "0,0", 600, (cli.SEARCH_BLOCK, 64)),
        (TWELVE_REFS, "0,0", 600, (cli.SEARCH_BLOCK, 7, 64)),
        (BOUNDARY_REFS, "0,0", 400, (cli.SEARCH_BLOCK, 64)),
        ("0,0;40,0;0,40", "0,0", 50, (cli.SEARCH_BLOCK,)),  # one click pattern
    ],
    ids=["3refs", "2refs-13blocks", "8refs", "12refs", "65refs", "one-pattern"],
)
def test_search_blocks_keep_per_trial_records(refs, data, trials, blocks, tmp_path, monkeypatch):
    argv = ["search", "--refs", refs, "--data", data, "--trials", str(trials), "--seed", "3"]
    spec = SearchSpec(tuple(map(cli.parse_complex, refs.split(";"))), cli.parse_complex(data))
    expected = search_csv_texts(spec, 3, trials)
    for block in blocks:
        monkeypatch.setattr(cli, "SEARCH_BLOCK", block)
        out, clicks = tmp_path / f"s{block}.csv", tmp_path / f"k{block}.csv"
        assert main(argv + ["--out", str(out), "--clicks-out", str(clicks)]) == 0
        assert (out.read_bytes(), clicks.read_bytes()) == tuple(map(str.encode, expected))
    rows = [line.split(",") for line in expected[0].splitlines()[1:]]
    click_rows = [line.split(",") for line in expected[1].splitlines()[1:]]
    for t in range(min(trials, 20)):
        outcome = run_search(spec, seed=3 + t)
        clicked = outcome.clicked.tolist()
        labels = [str(port + 2) for port, c in enumerate(clicked) if c]
        assert rows[t][:3] == [str(t), str(outcome.identified or ""), ";".join(labels)]
        assert click_rows[spec.n * t : spec.n * (t + 1)] == [
            [str(t), str(port + 2), str(int(c))] for port, c in enumerate(clicked)
        ]


PINNED_TRIALS = (
    "trial,identified,clicked_ports,p_succ_analytic\r\n"
    "0,1,3;4,0.185086817897\r\n"
    "1,,4,0.185086817897\r\n"
    "2,,3,0.185086817897\r\n"
    "3,,3,0.185086817897\r\n"
    "4,,,0.185086817897\r\n"
    "5,,,0.185086817897\r\n"
)
PINNED_CLICKS = (
    "trial,port,clicked\r\n"
    "0,2,0\r\n0,3,1\r\n0,4,1\r\n"
    "1,2,0\r\n1,3,0\r\n1,4,1\r\n"
    "2,2,0\r\n2,3,1\r\n2,4,0\r\n"
    "3,2,0\r\n3,3,1\r\n3,4,0\r\n"
    "4,2,0\r\n4,3,0\r\n4,4,0\r\n"
    "5,2,0\r\n5,3,0\r\n5,4,0\r\n"
)
PINNED_SUMMARY = "trials=6 empirical_success=0.166667 analytic_success=0.185087\n"


def test_search_csv_bytes_are_pinned(tmp_path, capsys):
    argv = ["search", "--refs", "0,0;1.5,0;0,1.5", "--data", "0,0", "--trials", "6"]
    out, clicks = tmp_path / "trials.csv", tmp_path / "clicks.csv"
    assert main(argv + ["--out", str(out), "--clicks-out", str(clicks)]) == 0
    assert out.read_bytes() == PINNED_TRIALS.encode()
    assert clicks.read_bytes() == PINNED_CLICKS.encode()
    assert capsys.readouterr() == (PINNED_SUMMARY, "")
    assert main(argv) == 0
    assert capsys.readouterr() == (PINNED_TRIALS, PINNED_SUMMARY)


@pytest.mark.parametrize("per_trial", [1, 2, 3])
def test_records_equal_one_string_per_record(per_trial):
    # Decade heads must hold across every residue, partial decades and carries.
    rng = np.random.default_rng(per_trial)
    pieces = [f",{k},piece\r\n" for k in range(5)]
    edges = (10, 100, 10**6, 2**63)
    starts = [*range(20), 1230, 1237, *(edge - k for edge in edges for k in (1, 3, 9))]
    for start in starts:
        for trials in range(1, 24):
            index = rng.integers(0, len(pieces), (trials, per_trial))
            rows = enumerate(index.tolist(), start)
            naive = "".join(str(trial) + pieces[i] for trial, row in rows for i in row)
            assert formats._records(start, pieces, index) == naive, (start, trials)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 12, 16, 17, 33, 64, 65, 70])
def test_pattern_keys_are_equal_exactly_when_rows_are(n):
    rng = np.random.default_rng(n)
    rows = rng.random((400, n)) < 0.5
    rows[200:] = rows[rng.integers(0, 200, 200)]  # repeats, then one-bit neighbours
    rows[np.arange(300, 400), rng.integers(0, n, 100)] ^= True
    keys = formats._pattern_keys(rows)
    assert keys.shape == (400,)
    if n <= 64:  # the narrowest of 1, 2, 4 and 8 bytes
        assert keys.dtype.kind == "u"
        assert keys.dtype.itemsize == min(b for b in (1, 2, 4, 8) if 8 * b >= n)
    _, by_key = np.unique(keys, return_inverse=True)
    _, by_row = np.unique(rows, axis=0, return_inverse=True)
    pairs = set(zip(by_key.tolist(), by_row.ravel().tolist()))
    assert len(pairs) == by_key.max() + 1 == by_row.max() + 1


def test_seed_gate_edges(tmp_path, capsys):
    refs = "0,0;1.5,0;0,1.5"
    argv = ["search", "--refs", refs, "--data", "0,0", "--trials", "5"]
    assert main(argv) == 0
    implicit = capsys.readouterr()
    assert main(argv + ["--seed", "0"]) == 0
    assert capsys.readouterr() == implicit
    # seed + trials = 2**64: the last trial's seed is 2**64 - 1.
    seed, clicks = 2**64 - 5, tmp_path / "clicks.csv"
    assert main(argv + [f"--seed={seed}", "--out", "/dev/null", "--clicks-out", str(clicks)]) == 0
    spec = SearchSpec(tuple(map(cli.parse_complex, refs.split(";"))), 0)
    p = [click_probability(b) for b in spec.outputs[1 : spec.n + 1]]
    expected = [
        f"{t},{port + 2},{int(c)}"
        for t in range(5)
        for port, c in enumerate(np.random.default_rng(seed + t).random(spec.n) < p)
    ]
    assert clicks.read_text().splitlines()[1:] == expected
    capsys.readouterr()
    assert main(argv + [f"--seed={seed + 1}"]) == 1
    assert capsys.readouterr() == (
        "",
        f"error: --seed {seed + 1} with --trials 5 needs seeds beyond 2**64 - 1\n",
    )


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_a_named_command_is_parsed_once(monkeypatch, capsys):
    calls = []
    parsers = {"top": cli.build_parser(), **cli.build_parser().commands}
    for name, parser in parsers.items():
        def counted(*args, _parse=parser.parse_known_args, _name=name):
            calls.append(_name)
            return _parse(*args)

        monkeypatch.setattr(parser, "parse_known_args", counted)
    assert main(["qkd", "--n", "2", "--alpha", "1,0"]) == 0
    assert main(SEARCH) == 0
    assert main(["bogus"]) == 1
    assert calls == ["qkd", "search", "top"]


def test_reused_parser_keeps_its_defaults():
    argv = ["search", "--refs", "0,0;1,0", "--data", "0,0"]
    assert main(argv + ["--c", "2"]) == 2  # above the contraction bound
    first, second = (cli.build_parser().parse_args(argv) for _ in range(2))
    assert first is not second
    assert (first.c, first.trials, first.seed, first.mode) == (None, 1, 0, "dilation")


def test_reused_parser_after_a_bad_flag(tmp_path, capsys):
    assert main(["search", "--refs", "0,0;1,0", "--data", "0,0", "--bogus"]) == 1
    capsys.readouterr()
    test_search_csv_bytes_are_pinned(tmp_path, capsys)


def test_each_command_prints_the_same_after_the_others(tmp_path, capsys):
    (tmp_path / "m.txt").write_text(format_matrix(comparison_map(2)))
    (tmp_path / "c.txt").write_text(f"width=2\nBS 0 1 {np.pi / 4:.17g} 0\n")
    (tmp_path / "a.txt").write_text(format_amplitudes(np.array([1.0, 0.5j])))
    commands = [
        ["synth", str(tmp_path / "m.txt"), str(tmp_path / "out.txt")],
        ["run", str(tmp_path / "c.txt"), str(tmp_path / "a.txt")],
        ["search", "--refs", "0,0;1.5,0;0,1.5", "--data", "0,0", "--trials", "6"],
        ["qkd", "--n", "4", "--alpha", "1,0"],
        ["bellcat", "--v1", "1,0,0,0", "--v2", "0,0,1,0", "--alpha", "0.6,0"],
    ]
    alone = []
    for argv in commands:
        cli.build_parser.cache_clear()
        alone.append((main(argv), capsys.readouterr()))
    for k, argv in enumerate(commands):
        for other in commands[:k] + commands[k + 1 :]:
            main(other)
        capsys.readouterr()
        assert (main(argv), capsys.readouterr()) == alone[k]


def test_search_rejects_inconsistent_n(capsys):
    # search takes no --n: the reference count is len(--refs).
    assert main(["search", "--refs", "1,0;2,0", "--data", "1,0", "--n", "3"]) == 1
    assert capsys.readouterr() == ("", "error: unrecognized arguments: --n 3\n")


@pytest.mark.parametrize("command", [[], ["synth"], ["run"], ["search"], ["qkd"], ["bellcat"]])
def test_help_prints_to_stdout_and_returns_zero(command, capsys):
    assert main([*command, "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(" ".join(["usage: cohcirc", *command])) and err == ""


def test_search_rejects_oversized_comparison_scale():
    args = ["search", "--refs", "1,0;2,0", "--data", "1,0", "--c", "0.9"]
    assert main(args) == 2


def test_qkd_order_four(capsys):
    assert main(["qkd", "--n", "4", "--alpha", "1,0"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()[1:]
    physical = [complex(float(l.split()[3]), float(l.split()[4])) for l in lines]
    assert np.allclose(physical, [1, 1j, -1, -1j], atol=1e-12)


def test_bellcat_infeasible_reports_sigma(capsys):
    code = main(
        ["bellcat", "--v1", "1,0,0,0", "--v2", "0,0,1,0", "--alpha", "0.6,0"]
    )
    assert code == 2
    out = capsys.readouterr().out
    assert "infeasible" in out
    assert "1.2" in out


def test_bellcat_feasible(capsys):
    code = main(
        ["bellcat", "--v1", "1,0,0,0", "--v2", "0,0,1,0", "--alpha", "0.4,0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "feasible" in out
    assert "max_alpha=0.5" in out


def test_unknown_flag_is_a_parse_error():
    assert main(["qkd", "--n", "4", "--alpha", "1,0", "--bogus"]) == 1


def test_bad_complex_flag():
    assert main(["qkd", "--n", "4", "--alpha", "1"]) == 1


def test_synth_rejects_non_finite_matrix_entries(tmp_path, capsys):
    matrix_file = tmp_path / "m.txt"
    matrix_file.write_text("2 2\n1 0 0 0\n0 0 nan 0\n")
    assert main(["synth", str(matrix_file), str(tmp_path / "c.txt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: matrix:")


@pytest.mark.filterwarnings("error")
def test_synth_rejects_infinite_imaginary_part_without_warning(tmp_path, capsys):
    matrix_file = tmp_path / "m.txt"
    matrix_file.write_text("1 1\n0 inf\n")
    assert main(["synth", str(matrix_file), str(tmp_path / "c.txt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: matrix:")


def test_run_rejects_non_finite_amplitudes(tmp_path, capsys):
    circuit_file = tmp_path / "c.txt"
    amps_file = tmp_path / "a.txt"
    circuit_file.write_text("width=2\nBS 0 1 0.5 0\n")
    amps_file.write_text("n=2\n1 0\ninf 0\n")
    assert main(["run", str(circuit_file), str(amps_file)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: amplitudes:")


SEARCH = ["search", "--refs", "0,0;1,0", "--data", "0,0"]
BELLCAT = ["bellcat", "--v1", "1,0,0,0", "--v2", "0,0,1,0"]
# Input files of the bad-input table, written to its working directory.
# splitter.txt is what ``synth`` makes of the 50/50 splitter [[1, 1], [1, -1]]/sqrt(2).
BAD_INPUT_FILES = {
    "splitter.txt": (
        "width=2\nBS 0 1 -0.78539816339744828 -1.5707963267948966\nPS 1 -3.1415926535897931\n"
    ),
    "huge_input.txt": "n=2\n1e200 0\n0 0\n",
    "huge_output.txt": "n=2\n1.7e308 0\n1.7e308 0\n",
    "huge_matrix.txt": "1 1\n1e308 0\n",
    "empty_matrix.txt": "",
    "no_rows_matrix.txt": "0 2\n",
    "no_modes.txt": "n=0\n",
    "three_numbers.txt": "n=1\n1 2 3\n",
    "empty_circuit.txt": "",
    "shear.txt": "2 2\n1 0 0.3 0\n0 0 1 0\n",  # largest singular value 1.161
    "amplifier.txt": "2 2\n2 0 0 0\n0 0 0.5 0\n",
}


# Rejected inputs by test id.  The ids are the names these cases were first
# collected under; a new row takes a new, descriptive id, so adding a row
# anywhere renames no other case.
BAD_INPUTS = {
    "argv0-1": (BELLCAT + ["--alpha", "nan,0"], 1),
    "argv1-1": (["bellcat", "--v1", "nan,0,0,0", "--v2", "0,0,1,0", "--alpha", "0.1,0"], 1),
    "argv2-1": (["bellcat", "--v1", "1,0,0,0", "--v2=0,0,-inf,0", "--alpha", "0.1,0"], 1),
    "argv3-2": (["bellcat", "--v1=1.7e308,1.7e308,0,0", "--v2=0,0,1,0", "--alpha=1,0"], 2),
    "argv4-1": (["qkd", "--n", "4", "--alpha", "nan,0"], 1),
    "argv5-2": (["qkd", "--n", "4", "--alpha", "1e308,0"], 2),
    "argv6-1": (["search", "--refs", "0,0;1,0", "--data", "inf,0"], 1),
    "argv7-1": (["search", "--refs", "0,0;nan,1", "--data", "0,0"], 1),
    "argv8-1": (SEARCH + ["--seed=-5"], 1),
    "argv9-1": (SEARCH + ["--seed", "1.5"], 1),
    "argv10-1": (SEARCH + ["--trials=-3"], 1),
    "argv11-1": (SEARCH + ["--trials", "many"], 1),
    "argv12-1": (SEARCH + ["--c", "nan"], 1),
    "argv13-1": (SEARCH + ["--c", "inf"], 1),
    "argv14-1": (SEARCH + ["--c", "0"], 1),
    "argv15-1": (SEARCH + ["--c=-0.1"], 1),
    "argv16-2": (["search", "--refs", "0,0;1,0;2,0", "--data", "0,0", "--mode", "explicit"], 2),
    "argv17-2": (SEARCH + ["--mode", "explicit", "--c", "0.1"], 2),
    "argv18-1": (SEARCH + ["--trials", "0"], 1),
    "argv19-1": (SEARCH + [f"--seed={2**64 - 2}", "--trials=3"], 1),
    "argv20-2": (["search", "--refs=1e308,1e308;1e308,1.7e308", "--data=1e308,1.7e308"], 2),
    "argv21-2": (["run", "splitter.txt", "huge_input.txt"], 2),
    "argv22-2": (["run", "splitter.txt", "huge_output.txt"], 2),
    "argv23-2": (["synth", "huge_matrix.txt", "out.txt"], 2),
    "argv24-1": (
        ["search", "--refs", "0,0;3,0", "--data=0.2,0", "--trials=1000", "--out=o.csv"],
        1,
    ),
    "argv25-2": (
        ["search", "--refs=0,0;1,0;2,0", "--data=0,0", "--mode=explicit", "--out", "x.csv"],
        2,
    ),
    "argv26-1": (["search", "--refs", "0,0;0,0", "--data", "0,0"], 1),
    "argv27-1": (["qkd", "--n", "0", "--alpha", "1,0"], 1),
    "argv28-1": (["qkd", "--n=-3", "--alpha", "1,0"], 1),
    "argv29-1": (SEARCH + ["--n", "0"], 1),
    "argv30-1": (["synth", "empty_matrix.txt", "out.txt"], 1),
    "argv31-1": (["synth", "no_rows_matrix.txt", "out.txt"], 1),
    "argv32-1": (["run", "splitter.txt", "no_modes.txt"], 1),
    "argv33-1": (["run", "splitter.txt", "three_numbers.txt"], 1),
    "argv34-2": (
        ["search", "--refs=0,0;1,0;2,0", "--data=0,0", "--mode=explicit", "--clicks-out", "k.csv"],
        2,
    ),
    "argv35-2": (
        SEARCH + ["--mode", "explicit", "--c", "0.1", "--out", "o.csv", "--clicks-out=k.csv"],
        2,
    ),
    # The mode is checked when the spec is built, before the match.
    "argv36-2": (["search", "--refs=0,0;1,0;2,0", "--data=5,0", "--mode=explicit"], 2),
    # No double-precision map meets both Bell-cat equations for these.
    "argv37-2": (["bellcat", "--v1=1e100,0,0,2e100", "--v2=1,0,-1,0", "--alpha=0.35,0"], 2),
    "argv38-2": (["bellcat", "--v1=1e50,0,0,2e50", "--v2=1,0.3,-0.7,1", "--alpha=0.3,0"], 2),
    "argv39-2": (["bellcat", "--v1=1e200,0,0,0", "--v2=0,0,1e-200,0", "--alpha=3e-201,0"], 2),
    "run-empty-circuit-file": (["run", "empty_circuit.txt", "huge_input.txt"], 1),
    # Two writers on one file would interleave their records.
    "search-out-and-clicks-out-same-file": (
        SEARCH + ["--trials=3000", "--out=f.csv", "--clicks-out", "./f.csv"],
        1,
    ),
    # A tolerance past linalg.MAX_TOL decided these verdicts: both were
    # realized as the identity, with exit 0.
    "synth-shear-tol-above-cap": (["synth", "shear.txt", "out.txt", "--tol", "0.5"], 1),
    "synth-amplifier-tol-above-cap": (["synth", "amplifier.txt", "out.txt", "--tol=5"], 1),
}


@pytest.mark.parametrize("argv, code", list(BAD_INPUTS.values()), ids=list(BAD_INPUTS))
@pytest.mark.filterwarnings("error")
def test_bad_input_exits_with_one_error_line(argv, code, tmp_path, monkeypatch, capsys):
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    # A rejected search opens no output file.
    flags = ("--out", "--clicks-out")
    outputs = [argv[i + 1] for i, arg in enumerate(argv) if arg in flags]
    pairs = [arg.partition("=") for arg in argv]
    outputs += [value for flag, eq, value in pairs if eq and flag in flags]
    assert not any((tmp_path / path).exists() for path in outputs)


ANALYTIC = "analytic_success=0.283469"  # of SEARCH
COMMANDS = "(choose from 'synth', 'run', 'search', 'qkd', 'bellcat')"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        ([], 1, ["error: the following arguments are required: command"]),
        (["bogus"], 1, [f"error: argument command: invalid choice: 'bogus' {COMMANDS}"]),
        (["--version"], 1, ["error: the following arguments are required: command"]),
        (SEARCH + ["--tri", "3"], 0, ["trials=3 empirical_success=0.333333 " + ANALYTIC]),
    ],
    ids=["no-argv", "unknown-command", "top-level-flag", "abbreviated-flag"],
)
def test_top_level_and_abbreviation_lines_are_pinned(argv, code, err, capsys):
    # Only argv that names no subcommand reaches the top-level parser.
    assert main(argv) == code
    assert capsys.readouterr().err.splitlines() == err


@pytest.mark.parametrize(
    "second, code",
    [(os.link, 1), (os.symlink, 1), (shutil.copyfile, 0)],
    ids=["hard-link", "symlink", "copy"],
)
def test_search_refuses_two_names_of_one_file(second, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("a.csv").write_text("kept\n")
    second("a.csv", "b.csv")
    assert main(SEARCH + ["--trials=3000", "--out=a.csv", "--clicks-out", "b.csv"]) == code
    if code:
        err = "error: --out and --clicks-out name the same file 'a.csv'\n"
        assert capsys.readouterr() == ("", err)
        assert Path("a.csv").read_text() == "kept\n"
    else:  # two files: each gets its own CSV
        assert Path("a.csv").read_text().startswith("trial,identified,")
        assert Path("b.csv").read_text().startswith("trial,port,clicked")


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--refs=-1.7e308,0;1.7e308,0", "--data=-1.7e308,0"],
        ["search", "--refs=1.7e308,0;1.7e308,1e307", "--data=1.7e308,0", "--out", "o.csv"],
    ],
    ids=["search-ports-overflow", "search-ports-overflow-out"],
)
@pytest.mark.filterwarnings("error")
def test_search_overflow_fails_before_writing_anything(argv, tmp_path, monkeypatch, capsys):
    # Every input is finite, but a comparison port's amplitude overflows.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: propagated amplitudes overflow\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, line",
    [
        (["synth", "empty_matrix.txt", "out.txt"], "matrix: empty input"),
        (["synth", "no_rows_matrix.txt", "out.txt"], "matrix: invalid shape 0x2"),
        (["run", "splitter.txt", "no_modes.txt"], "amplitudes: invalid width 0"),
        (
            ["run", "splitter.txt", "three_numbers.txt"],
            "amplitudes: expected 're im', got '1 2 3'",
        ),
        (
            ["run", "empty_circuit.txt", "huge_input.txt"],
            "circuit: first line must be 'width=<n>'",
        ),
    ],
    ids=[
        "argv0-matrix: empty input",
        "argv1-matrix: invalid shape 0x2",
        "argv2-amplitudes: invalid width 0",
        "argv3-amplitudes: expected 're im', got '1 2 3'",
        "run-empty-circuit-file",
    ],
)
def test_malformed_file_error_lines_are_pinned(argv, line, tmp_path, monkeypatch, capsys):
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {line}\n")


COMPLEX = "a finite complex number 're,im'"
PAIR = "four finite numbers 're,im,re,im'"
PAIRS = "';'-separated finite 're,im' pairs"


def flags(command, **values):
    defaults = {
        "search": {"refs": "0,0;1,0", "data": "0,0"},
        "qkd": {"n": "4", "alpha": "1,0"},
        "bellcat": {"v1": "1,0,0,0", "v2": "0,0,1,0", "alpha": "0.1,0"},
    }[command]
    return [command] + [f"--{flag}={text}" for flag, text in {**defaults, **values}.items()]


@pytest.mark.parametrize(
    "command, flag, expected, text",
    [
        ("search", "data", COMPLEX, "1"),
        ("search", "data", COMPLEX, "x,0"),
        ("bellcat", "v1", PAIR, "1,0,0"),
        ("bellcat", "v1", PAIR, "1,0,0,0,5"),
        ("qkd", "alpha", COMPLEX, "nan,0"),
        ("bellcat", "alpha", COMPLEX, "0,inf"),
        ("bellcat", "v1", PAIR, "1,nan,0,0"),
        ("bellcat", "v2", PAIR, "0,0,-inf,0"),
        ("search", "refs", PAIRS, "0,0;inf,1"),
        ("search", "refs", PAIRS, ";"),
    ],
    ids=[
        "data-one-number", "data-not-a-number", "v1-three-numbers", "v1-five-numbers",
        "qkd-alpha-nan", "bellcat-alpha-inf", "v1-nan", "v2-inf", "refs-inf", "refs-empty",
    ],
)
def test_bad_complex_flag_is_named(command, flag, expected, text, capsys):
    assert main(flags(command, **{flag: text})) == 1
    err = f"error: argument --{flag}: expected {expected}, got {text!r}\n"
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize(
    "command, text",
    [("qkd", "0"), ("qkd", "-3"), ("qkd", "2.5")],
)
def test_bad_count_flag_is_named(command, text, capsys):
    assert main(flags(command, n=text)) == 1
    err = f"error: argument --n: expected a positive integer, got {text!r}\n"
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["synth", "bad.txt", "out.txt"], "matrix"),
        (["run", "bad.txt", "amplitudes.txt"], "circuit"),
        (["run", "circuit.txt", "bad.txt"], "amplitudes"),
    ],
    ids=["matrix", "circuit", "amplitudes"],
)
def test_file_that_is_not_utf8_is_one_error_line(argv, kind, tmp_path, monkeypatch, capsys):
    (tmp_path / "bad.txt").write_bytes(b"1 1\n\xff 0\n")
    (tmp_path / "circuit.txt").write_text("width=1\n")
    (tmp_path / "amplitudes.txt").write_text("n=1\n1 0\n")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = f"error: {kind}: not UTF-8 text (invalid start byte at byte 4)\n"
    assert capsys.readouterr() == ("", err)


def test_out_of_memory_is_one_error_line(monkeypatch, capsys):
    # Run only under a 2 GiB address-space cap: the 20000-mode DFT needs about 3 GiB.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "cohcirc.cli", "qkd", "--n", "20000", "--alpha", "1,0"]
    done = subprocess.run(argv, env=env, preexec_fn=cap, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: Unable to allocate "), line

    def exhausted(n, alpha):
        raise MemoryError

    monkeypatch.setattr(cli.protocols, "generate_phase_states", exhausted)
    assert main(["qkd", "--n", "4", "--alpha", "1,0"]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")


@pytest.mark.filterwarnings("error")
def test_accepted_search_with_coincident_references_still_warns(capsys):
    assert main(["search", "--refs", "0,0;0,0;1,0", "--data", "1,0"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: references 1 and 2 coincide and can never be told apart",
        "trials=1 empirical_success=0.000000 analytic_success=0.048929",
    ]


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-10"])
def test_synth_rejects_bad_tolerance(tmp_path, capsys, tol):
    # With --tol nan the identity used to fail the unitarity test and go
    # down the dilation route.
    matrix_file = tmp_path / "m.txt"
    matrix_file.write_text(format_matrix(np.eye(2)))
    assert main(["synth", str(matrix_file), str(tmp_path / "c.txt"), f"--tol={tol}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: argument --tol"), err


TOL_ABOVE_CAP = "error: argument --tol: expected a positive number at most 0.25, got "


@pytest.mark.parametrize(
    "row, err",
    [
        ("synth-shear-tol-above-cap", TOL_ABOVE_CAP + "'0.5'"),
        ("synth-amplifier-tol-above-cap", TOL_ABOVE_CAP + "'5'"),
    ],
    ids=["shear", "amplifier"],
)
def test_tolerance_above_the_cap_lines_are_pinned(row, err, tmp_path, monkeypatch, capsys):
    argv, code = BAD_INPUTS[row]
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert capsys.readouterr() == ("", err + "\n")
    assert not (tmp_path / "out.txt").exists()


def test_synth_tolerance_cap_is_inclusive(tmp_path, capsys):
    matrix_file = tmp_path / "m.txt"
    matrix_file.write_text(format_matrix(np.eye(2)))
    argv = ["synth", str(matrix_file), str(tmp_path / "c.txt")]
    assert main(argv + ["--tol=0.25"]) == 0
    capsys.readouterr()
    past = repr(math.nextafter(0.25, 1))
    assert main(argv + [f"--tol={past}"]) == 1
    assert capsys.readouterr().err == f"{TOL_ABOVE_CAP}{past!r}\n"


def test_synth_exits_2_when_its_residual_exceeds_the_gate(tmp_path, monkeypatch, capsys):
    # A power-of-two tol scales exactly, so ``RESIDUAL_TOLS * tol`` can equal
    # the residual to the last bit.
    tol = 2.0**-20
    target = (1 + 2.0**-25) * np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    matrix_file, circuit_file = tmp_path / "m.txt", tmp_path / "c.txt"
    matrix_file.write_text(format_matrix(target))
    matrix = read_matrix(matrix_file)
    residual = max_abs(compile_circuit(reck_decompose(matrix, tol)) - matrix)
    assert 0 < residual <= tol
    argv = ["synth", str(matrix_file), str(circuit_file), f"--tol={tol!r}"]
    monkeypatch.setattr(cli, "RESIDUAL_TOLS", residual / tol)
    assert main(argv) == 0
    assert f"route=unitary modes=2 beamsplitters=1 phase_shifters=1 residual={residual:.3e}" in (
        capsys.readouterr().out
    )
    circuit_file.unlink()
    factor = math.nextafter(residual / tol, 0)
    monkeypatch.setattr(cli, "RESIDUAL_TOLS", factor)
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "",
        f"error: the circuit misses its target by {residual:.3e}, "
        f"more than {factor} times --tol {tol:g}\n",
    )
    assert not circuit_file.exists()


def test_search_matches_datum_within_tolerance(capsys):
    assert main(["search", "--refs", "0.30000000000000004,0;1,0", "--data", "0.3,0"]) == 0
    assert "analytic_success=0.150692" in capsys.readouterr().err


def test_search_click_probability_does_not_overflow(capsys):
    assert main(["search", "--refs", "0,0;0,2.7e154", "--data", "0,0"]) == 0
    captured = capsys.readouterr()
    assert "analytic_success=1.000000" in captured.err
    assert captured.out.splitlines()[1] == "0,1,3,1"
    # data - ref overflows here, though every amplitude the search uses is finite.
    assert main(["search", "--refs=1e308,0;-1e308,0", "--data=1e308,0", "--trials", "3"]) == 0
    captured = capsys.readouterr()
    assert "analytic_success=1.000000" in captured.err
    assert captured.out.splitlines()[1:] == ["0,1,3,1", "1,1,3,1", "2,1,3,1"]


def test_bellcat_independent_inputs_far_from_unit_scale(capsys):
    argv = ["bellcat", "--v1=1e200,0,0,0", "--v2=0,0,1e200,0", "--alpha=1,0"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("feasible\n")
    assert "max_alpha=5e+199\n" in out


def test_bellcat_dependent_inputs_near_overflow(capsys):
    argv = ["bellcat", "--v1=0,0,8e307,8e307", "--v2=0,0,8e307,1e308", "--alpha=0,0"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "max_alpha=0\n" in out
    assert "kernel_residual=0.000e+00" in out
    assert "inf" not in out and "nan" not in out


def test_bellcat_inputs_far_apart_in_scale(capsys):
    argv = ["bellcat", "--v1=1e-320,0,0,0", "--v2=0,0,1,0"]
    assert main(argv + ["--alpha=0,0"]) == 0
    out = capsys.readouterr().out
    max_alpha = float(out.split("max_alpha=")[1].split()[0])
    assert max_alpha == pytest.approx(1e-320 / np.sqrt(2), rel=1e-3)
    # |alpha| / max_alpha overflows, so only the verdict is printed.
    assert main(argv + ["--alpha=1e308,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("infeasible (no contraction maps")
    assert captured.err == ""


def test_readme_cli_block_runs_as_processes(tmp_path):
    # Each ``cohcirc ...`` line of the README's CLI block, as its own process
    # on the README's 2x2 matrix example; exit 2 where its comment says so.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("\n## CLI\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", cli_section, re.M | re.S).group(1)
    matrix = re.search(r"^Matrix:.*?^```\n(.*?)^```", cli_section, re.M | re.S).group(1)
    (tmp_path / "matrix.txt").write_text(matrix)
    (tmp_path / "amplitudes.txt").write_text("n=2\n1 0\n0 0.5\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    lines = block.splitlines()
    assert [line.split()[1] for line in lines] == ["synth", "run", "qkd", "search", "bellcat"]
    for line in lines:
        words = shlex.split(line, comments=True)
        assert words[0] == "cohcirc", line
        expected = re.search(r"# exit (\d)", line)
        argv = [sys.executable, "-m", "cohcirc.cli", *words[1:]]
        done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == (int(expected.group(1)) if expected else 0), (line, done.stderr)
    assert (tmp_path / "circuit.txt").exists() and (tmp_path / "trials.csv").exists()
