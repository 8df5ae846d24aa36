import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohcirc import Beamsplitter, Circuit, PhaseShifter, compile_circuit, formats
from cohcirc.formats import (
    ParseError,
    format_circuit,
    parse_amplitudes,
    parse_circuit,
    parse_matrix,
    read_circuit,
    read_matrix,
    write_circuit,
)
from cohcirc.linalg import max_abs
from conftest import format_amplitudes, format_matrix, random_circuit


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
    ("", "circuit: first line must be 'width=<n>'"),
]


@pytest.mark.parametrize("text, message", CIRCUIT_DEFECTS)
def test_circuit_defect_messages_are_pinned(text, message):
    with pytest.raises(ParseError) as caught:
        parse_circuit(text)
    assert str(caught.value) == message


# --- the kept circuit: the last circuit text written or parsed --------------


LARGEST = 1.7976931348623157e308
EXTREME_ANGLES = [0.0, -0.0, 5e-324, LARGEST, -LARGEST, math.pi, -math.pi]
angle = st.sampled_from(EXTREME_ANGLES) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def circuits(draw):
    """Mixed beamsplitter/phase-shifter circuits on 1-8 modes."""
    width = draw(st.integers(min_value=1, max_value=8))
    elements = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        if width > 1 and draw(st.booleans()):
            i, j = draw(st.permutations(range(width)))[:2]
            elements.append(Beamsplitter(i, j, draw(angle), draw(angle)))
        else:
            mode = draw(st.integers(min_value=0, max_value=width - 1))
            elements.append(PhaseShifter(mode, draw(angle)))
    return Circuit(width, elements)


def bits(column) -> list[int]:
    """The float64 bit patterns of a column: unlike ``==``, tells -0.0 from 0.0."""
    return np.asarray(column, dtype=float).view(np.int64).tolist()


def fresh_parse(text: str) -> Circuit:
    formats._last_circuit = None
    return parse_circuit(text)


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_circuit_text_round_trips_every_bit(circuit):
    # What makes reusing the written circuit exact: the parse of its text
    # reproduces each mode, mask entry and angle it holds.
    parsed = fresh_parse(format_circuit(circuit))
    assert parsed.width == circuit.width
    assert parsed.modes.tolist() == circuit.modes.tolist()
    assert parsed.coupler.tolist() == circuit.coupler.tolist()
    assert bits(parsed.theta) == bits(circuit.theta)
    assert bits(parsed.phi) == bits(circuit.phi)


def test_reading_the_written_circuit_returns_it(tmp_path):
    path = tmp_path / "c.txt"
    circuit = random_circuit(np.random.default_rng(7), 6, 20)
    layers = circuit.lowered
    write_circuit(path, circuit)
    assert read_circuit(path) is circuit
    assert read_circuit(path).lowered is layers


def test_overwritten_file_is_parsed_afresh(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "c.txt"
    written, other = random_circuit(rng, 5, 10), random_circuit(rng, 5, 10)
    write_circuit(path, written)
    path.write_text(format_circuit(other))
    read = read_circuit(path)
    assert read is not written and read is not other
    clean = fresh_parse(format_circuit(other))
    assert read == clean == other
    assert bits(read.phi) == bits(clean.phi) and bits(read.theta) == bits(clean.theta)


def test_rejected_text_or_failed_write_keeps_the_last_circuit(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "c.txt"
    written, other = random_circuit(rng, 4, 8), random_circuit(rng, 4, 8)
    write_circuit(path, written)
    with pytest.raises(ParseError):
        parse_circuit("width=2\nXX 0 0.5\n")
    with pytest.raises(FileNotFoundError):
        write_circuit(tmp_path / "missing" / "c.txt", other)
    assert read_circuit(path) is written
    assert parse_circuit(format_circuit(other)) is not other
