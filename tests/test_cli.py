import numpy as np
import pytest

from cohcirc import comparison_map, search_unitary_explicit
from cohcirc.cli import main
from cohcirc.formats import read_circuit, write_amplitudes, write_matrix


def test_synth_identity(tmp_path, capsys):
    matrix_file = tmp_path / "m.txt"
    circuit_file = tmp_path / "c.txt"
    write_matrix(matrix_file, np.eye(4))
    assert main(["synth", str(matrix_file), str(circuit_file)]) == 0
    out = capsys.readouterr().out
    assert "beamsplitters=0" in out
    assert read_circuit(circuit_file).elements == ()


def test_synth_search_unitary(tmp_path, capsys):
    matrix_file = tmp_path / "m.txt"
    circuit_file = tmp_path / "c.txt"
    write_matrix(matrix_file, search_unitary_explicit())
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
    write_matrix(matrix_file, comparison_map(2))
    assert main(["synth", str(matrix_file), str(circuit_file)]) == 0
    out = capsys.readouterr().out
    assert "route=dilation" in out
    assert read_circuit(circuit_file).width == 6


def test_synth_rejects_expanding_matrix(tmp_path, capsys):
    matrix_file = tmp_path / "m.txt"
    write_matrix(matrix_file, np.diag([1.4, 0.2]))
    assert main(["synth", str(matrix_file), str(tmp_path / "c.txt")]) == 2


def test_synth_rejects_garbage_file(tmp_path):
    bad = tmp_path / "m.txt"
    bad.write_text("not a matrix\n")
    assert main(["synth", str(bad), str(tmp_path / "c.txt")]) == 1


def test_run_echoes_through_empty_circuit(tmp_path, capsys):
    circuit_file = tmp_path / "c.txt"
    amps_file = tmp_path / "a.txt"
    circuit_file.write_text("width=2\n")
    write_amplitudes(amps_file, np.array([1.0, 0.0]))
    assert main(["run", str(circuit_file), str(amps_file)]) == 0
    out = capsys.readouterr().out
    assert "photon number: in=1 out=1" in out


def test_run_fifty_fifty_splitter(tmp_path, capsys):
    circuit_file = tmp_path / "c.txt"
    amps_file = tmp_path / "a.txt"
    circuit_file.write_text(f"width=2\nBS 0 1 {np.pi / 4:.17g} 0\n")
    write_amplitudes(amps_file, np.array([1.0, 0.0]))
    assert main(["run", str(circuit_file), str(amps_file)]) == 0
    out = capsys.readouterr().out
    assert "+7.071067811865e-01" in out  # starred outputs 1/sqrt(2), i/sqrt(2)
    assert "photon number: in=1 out=1" in out


def test_run_width_mismatch(tmp_path):
    circuit_file = tmp_path / "c.txt"
    amps_file = tmp_path / "a.txt"
    circuit_file.write_text("width=3\n")
    write_amplitudes(amps_file, np.array([1.0, 0.0]))
    assert main(["run", str(circuit_file), str(amps_file)]) == 2


def test_synth_then_run_matches_direct_application(tmp_path, capsys):
    from cohcirc import random_unitary

    rng = np.random.default_rng(60)
    u = random_unitary(5, rng)
    vec = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    matrix_file = tmp_path / "m.txt"
    circuit_file = tmp_path / "c.txt"
    amps_file = tmp_path / "a.txt"
    write_matrix(matrix_file, u)
    write_amplitudes(amps_file, vec)
    assert main(["synth", str(matrix_file), str(circuit_file)]) == 0
    capsys.readouterr()
    assert main(["run", str(circuit_file), str(amps_file)]) == 0
    lines = capsys.readouterr().out.splitlines()[1:6]
    starred = np.array(
        [complex(float(l.split()[1]), float(l.split()[2])) for l in lines]
    )
    assert np.max(np.abs(starred - u @ vec)) <= 1e-9


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


def test_search_rejects_inconsistent_n():
    assert main(["search", "--refs", "1,0;2,0", "--data", "1,0", "--n", "3"]) == 1


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


@pytest.mark.parametrize(
    "argv, code",
    [
        (BELLCAT + ["--alpha", "nan,0"], 1),
        (["bellcat", "--v1", "nan,0,0,0", "--v2", "0,0,1,0", "--alpha", "0.1,0"], 1),
        (["bellcat", "--v1", "1,0,0,0", "--v2=0,0,-inf,0", "--alpha", "0.1,0"], 1),
        (["bellcat", "--v1=1.7e308,1.7e308,0,0", "--v2=0,0,1,0", "--alpha=1,0"], 2),
        (["qkd", "--n", "4", "--alpha", "nan,0"], 1),
        (["qkd", "--n", "4", "--alpha", "1e308,0"], 2),
        (["search", "--refs", "0,0;1,0", "--data", "inf,0"], 1),
        (["search", "--refs", "0,0;nan,1", "--data", "0,0"], 1),
        (SEARCH + ["--seed=-5"], 1),
        (SEARCH + ["--seed", "1.5"], 1),
        (SEARCH + ["--trials=-3"], 1),
        (SEARCH + ["--trials", "many"], 1),
        (SEARCH + ["--c", "nan"], 1),
        (SEARCH + ["--c", "inf"], 1),
        (SEARCH + ["--c", "0"], 1),
        (SEARCH + ["--c=-0.1"], 1),
        (["search", "--refs", "0,0;1,0;2,0", "--data", "0,0", "--mode", "explicit"], 2),
        (SEARCH + ["--mode", "explicit", "--c", "0.1"], 2),
    ],
)
def test_bad_input_exits_with_one_error_line(argv, code, capsys):
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-10"])
def test_synth_rejects_bad_tolerance(tmp_path, capsys, tol):
    # With --tol nan the identity used to fail the unitarity test and go
    # down the dilation route.
    matrix_file = tmp_path / "m.txt"
    write_matrix(matrix_file, np.eye(2))
    assert main(["synth", str(matrix_file), str(tmp_path / "c.txt"), f"--tol={tol}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: argument --tol"), err


def test_search_click_probability_does_not_overflow(capsys):
    assert main(["search", "--refs", "0,0;0,2.7e154", "--data", "0,0"]) == 0
    captured = capsys.readouterr()
    assert "analytic_success=1.000000" in captured.err
    assert captured.out.splitlines()[1] == "0,1,3,1"


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
