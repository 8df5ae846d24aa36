"""Text file formats shared by the CLI.

Matrix:      first line "rows cols", then rows*cols entries as "re im"
             pairs separated by whitespace, row-major; scientific
             notation is accepted.
Amplitudes:  first line "n=<width>", then one "re im" line per starred
             amplitude.
Circuit:     first line "width=<n>", then one element per line in
             application order, either "BS <i> <j> <theta> <phi>" or
             "PS <i> <phi>".  Modes are 0-based, angles in radians and
             written with 17 significant digits.
"""

from __future__ import annotations

import numpy as np

from .elements import Beamsplitter, PhaseShifter
from .synthesis import Circuit


class ParseError(ValueError):
    """Input text does not conform to one of the file formats."""


def _float(token: str, context: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{context}: cannot parse number {token!r}") from None


def _int(token: str, context: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{context}: cannot parse integer {token!r}") from None


def _check_finite(values: np.ndarray, context: str) -> None:
    if not np.isfinite(values).all():
        raise ParseError(f"{context}: entries must be finite, got nan or inf")


def parse_matrix(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines:
        raise ParseError("matrix: empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError("matrix: first line must be 'rows cols'")
    rows = _int(header[0], "matrix header")
    cols = _int(header[1], "matrix header")
    if rows < 1 or cols < 1:
        raise ParseError(f"matrix: invalid shape {rows}x{cols}")
    tokens = " ".join(lines[1:]).split()
    if len(tokens) != 2 * rows * cols:
        raise ParseError(
            f"matrix: expected {2 * rows * cols} numbers for a {rows}x{cols} "
            f"matrix, found {len(tokens)}"
        )
    values = np.array([_float(tok, "matrix entry") for tok in tokens])
    # Checked before combining: 1j * inf would warn about an invalid product.
    _check_finite(values, "matrix")
    flat = values[0::2] + 1j * values[1::2]
    return flat.reshape(rows, cols)


def format_matrix(m) -> str:
    a = np.asarray(m, dtype=complex)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


def parse_amplitudes(text: str) -> np.ndarray:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ParseError("amplitudes: first line must be 'n=<width>'")
    width = _int(lines[0][2:].strip(), "amplitudes header")
    if width < 1:
        raise ParseError(f"amplitudes: invalid width {width}")
    if len(lines) != width + 1:
        raise ParseError(f"amplitudes: expected {width} entries, found {len(lines) - 1}")
    values = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"amplitudes: expected 're im', got {line!r}")
        values.append(complex(_float(parts[0], "amplitude"), _float(parts[1], "amplitude")))
    amplitudes = np.array(values, dtype=complex)
    _check_finite(amplitudes, "amplitudes")
    return amplitudes


def format_amplitudes(amplitudes) -> str:
    vec = np.asarray(amplitudes, dtype=complex)
    lines = [f"n={vec.shape[0]}"]
    lines.extend(f"{z.real:.17g} {z.imag:.17g}" for z in vec)
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("width="):
        raise ParseError("circuit: first line must be 'width=<n>'")
    width = _int(lines[0][6:].strip(), "circuit header")
    elements = []
    for line in lines[1:]:
        parts = line.split()
        try:
            if parts[0] == "BS" and len(parts) == 5:
                elements.append(
                    Beamsplitter(
                        _int(parts[1], "circuit"),
                        _int(parts[2], "circuit"),
                        _float(parts[3], "circuit"),
                        _float(parts[4], "circuit"),
                    )
                )
            elif parts[0] == "PS" and len(parts) == 3:
                elements.append(
                    PhaseShifter(_int(parts[1], "circuit"), _float(parts[2], "circuit"))
                )
            else:
                raise ParseError(f"circuit: unrecognized element line {line!r}")
        except ValueError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(f"circuit: invalid element {line!r}: {exc}") from None
    try:
        return Circuit(width, tuple(elements))
    except ValueError as exc:
        raise ParseError(f"circuit: {exc}") from None


def format_circuit(circuit: Circuit) -> str:
    lines = [f"width={circuit.width}"]
    for element in circuit.elements:
        if isinstance(element, Beamsplitter):
            lines.append(
                f"BS {element.mode1} {element.mode2} "
                f"{element.theta:.17g} {element.phi:.17g}"
            )
        else:
            lines.append(f"PS {element.mode} {element.phi:.17g}")
    return "\n".join(lines) + "\n"


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def read_amplitudes(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_amplitudes(fh.read())


def read_circuit(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_circuit(fh.read())


def write_circuit(path, circuit: Circuit) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_circuit(circuit))
