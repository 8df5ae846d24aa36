import numpy as np
import pytest

from cohcirc import Beamsplitter, Circuit, PhaseShifter, compile_circuit
from cohcirc.formats import (
    ParseError,
    format_circuit,
    parse_amplitudes,
    parse_circuit,
    parse_matrix,
    read_matrix,
)
from cohcirc.linalg import max_abs
from conftest import format_amplitudes, format_matrix


def test_matrix_roundtrip():
    rng = np.random.default_rng(50)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    assert max_abs(parse_matrix(format_matrix(m)) - m) == 0.0


def test_matrix_accepts_scientific_notation():
    m = parse_matrix("1 2\n1.5e-3 -2E+1 0 3e0")
    assert np.allclose(m, [[1.5e-3 - 20j, 3j]])


def test_matrix_rejects_wrong_count():
    with pytest.raises(ParseError, match="expected"):
        parse_matrix("2 2\n1 0 0 0")


def test_matrix_rejects_bad_header():
    with pytest.raises(ParseError):
        parse_matrix("2\n1 0")
    with pytest.raises(ParseError):
        parse_matrix("a b\n1 0")


def test_matrix_file_roundtrip(tmp_path):
    path = tmp_path / "m.txt"
    m = np.array([[1 + 2j, -3e-15], [0.0, 4j]])
    path.write_text(format_matrix(m))
    assert max_abs(read_matrix(path) - m) == 0.0


def test_amplitudes_roundtrip():
    vec = np.array([0.25 - 1j, 3e8 + 0j, -1e-12j])
    assert np.array_equal(parse_amplitudes(format_amplitudes(vec)), vec)


def test_amplitudes_reject_bad_header():
    with pytest.raises(ParseError):
        parse_amplitudes("3\n1 0\n2 0\n3 0")


def test_amplitudes_reject_wrong_count():
    with pytest.raises(ParseError):
        parse_amplitudes("n=2\n1 0")


def test_circuit_roundtrip():
    circuit = Circuit(
        3,
        (
            Beamsplitter(0, 2, -0.123456789012345, 2.5),
            PhaseShifter(1, np.pi),
            Beamsplitter(1, 2, 1e-9, -3.0),
        ),
    )
    parsed = parse_circuit(format_circuit(circuit))
    assert parsed.width == 3
    assert parsed == circuit
    assert max_abs(compile_circuit(parsed) - compile_circuit(circuit)) <= 1e-15


def test_circuit_angles_keep_full_precision():
    circuit = Circuit(2, (Beamsplitter(0, 1, 0.7853981633974483, 1.1),))
    parsed = parse_circuit(format_circuit(circuit))
    assert parsed.elements[0].theta == 0.7853981633974483


def test_circuit_rejects_malformed_lines():
    with pytest.raises(ParseError):
        parse_circuit("width=2\nBS 0 1 0.5")
    with pytest.raises(ParseError):
        parse_circuit("width=2\nXX 0 0.5")
    with pytest.raises(ParseError):
        parse_circuit("BS 0 1 0.5 0.5")


def test_circuit_rejects_out_of_range_modes():
    with pytest.raises(ParseError):
        parse_circuit("width=2\nPS 5 0.1")


# One defect per file; the message each raises is pinned word for word.
CIRCUIT_DEFECTS = [
    ("width=3\nBS 0 1 0.5 x\n", "circuit: cannot parse number 'x'"),
    ("width=3\nBS 0 1.5 0.5 0.1\n", "circuit: cannot parse integer '1.5'"),
    ("width=3\nPS 1.5 0.1\n", "circuit: cannot parse integer '1.5'"),
    (
        "width=3\nPS 0 0.1\nBS -1 2 0.5 0.1\n",
        "circuit: invalid element 'BS -1 2 0.5 0.1': beamsplitter modes must be non-negative",
    ),
    (
        "width=3\nPS -1 0.1\n",
        "circuit: invalid element 'PS -1 0.1': phase shifter mode must be non-negative",
    ),
    (
        "width=3\nBS 1 1 0.5 0.1\n",
        "circuit: invalid element 'BS 1 1 0.5 0.1': beamsplitter modes must be distinct",
    ),
    (
        "width=3\nBS 0 1 0.5 0.1\nBS 0 3 0.5 0.1\n",
        "circuit: element modes (0, 3) exceed circuit width 3",
    ),
    ("width=3\nPS 3 0.1\n", "circuit: element modes (3,) exceed circuit width 3"),
    (
        "width=3\nBS 0 1 nan 0.1\n",
        "circuit: invalid element 'BS 0 1 nan 0.1': beamsplitter angles must be finite",
    ),
    (
        "width=3\nBS 0 1 0.5 inf\n",
        "circuit: invalid element 'BS 0 1 0.5 inf': beamsplitter angles must be finite",
    ),
    (
        "width=3\nPS 0 -inf\n",
        "circuit: invalid element 'PS 0 -inf': phase shifter angle must be finite",
    ),
    ("width=0\n", "circuit: circuit width must be at least 1"),
    ("width=0\nPS 0 0.1\n", "circuit: circuit width must be at least 1"),
    ("width=3\nBS 0 1 0.5\n", "circuit: unrecognized element line 'BS 0 1 0.5'"),
    ("width=x\n", "circuit header: cannot parse integer 'x'"),
    ("wid=3\n", "circuit: first line must be 'width=<n>'"),
]


@pytest.mark.parametrize("text, message", CIRCUIT_DEFECTS)
def test_circuit_defect_messages_are_pinned(text, message):
    with pytest.raises(ParseError) as caught:
        parse_circuit(text)
    assert str(caught.value) == message
