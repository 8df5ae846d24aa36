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

The last circuit text this process wrote with :func:`write_circuit` or
parsed with :func:`parse_circuit` is kept with its :class:`Circuit`, and
parsing that same text again returns that object, with any layers it has
already lowered.  ``.17g`` round-trips every finite double, sign of zero
included, so the kept circuit holds the values a fresh parse would.
Treat a returned circuit as read-only: it may be shared.
"""

from __future__ import annotations

import numpy as np

from .synthesis import Circuit


class ParseError(ValueError):
    """Input text does not conform to one of the file formats."""


_last_circuit: tuple[str, Circuit] | None = None  # (text, circuit), see the module docstring


def _numbers(convert, tokens: list[str], context: str) -> list:
    """``convert`` (int or float) of every token; a token it rejects raises ParseError."""
    try:
        return list(map(convert, tokens))
    except ValueError:
        for token in tokens:
            try:
                convert(token)
            except ValueError:
                what = "integer" if convert is int else "number"
                raise ParseError(f"{context}: cannot parse {what} {token!r}") from None
        raise


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
    rows, cols = _numbers(int, header, "matrix header")
    if rows < 1 or cols < 1:
        raise ParseError(f"matrix: invalid shape {rows}x{cols}")
    tokens = " ".join(lines[1:]).split()
    if len(tokens) != 2 * rows * cols:
        raise ParseError(
            f"matrix: expected {2 * rows * cols} numbers for a {rows}x{cols} "
            f"matrix, found {len(tokens)}"
        )
    values = np.array(_numbers(float, tokens, "matrix entry"))
    # Checked before combining: 1j * inf would warn about an invalid product.
    _check_finite(values, "matrix")
    flat = values[0::2] + 1j * values[1::2]
    return flat.reshape(rows, cols)


def parse_amplitudes(text: str) -> np.ndarray:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ParseError("amplitudes: first line must be 'n=<width>'")
    (width,) = _numbers(int, [lines[0][2:].strip()], "amplitudes header")
    if width < 1:
        raise ParseError(f"amplitudes: invalid width {width}")
    if len(lines) != width + 1:
        raise ParseError(f"amplitudes: expected {width} entries, found {len(lines) - 1}")
    pairs = [line.split() for line in lines[1:]]
    for line, pair in zip(lines[1:], pairs):
        if len(pair) != 2:
            raise ParseError(f"amplitudes: expected 're im', got {line!r}")
    values = _numbers(float, [token for pair in pairs for token in pair], "amplitude")
    amplitudes = np.array(values).view(complex)
    _check_finite(amplitudes, "amplitudes")
    return amplitudes


def parse_circuit(text: str) -> Circuit:
    global _last_circuit
    last = _last_circuit
    if last is not None and last[0] == text:
        return last[1]
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("width="):
        raise ParseError("circuit: first line must be 'width=<n>'")
    (width,) = _numbers(int, [lines[0][6:].strip()], "circuit header")
    body = lines[1:]
    rows = [line.split() for line in body]
    coupler = [len(p) == 5 and p[0] == "BS" for p in rows]
    for line, p, bs in zip(body, rows, coupler):
        if not bs and (len(p) != 3 or p[0] != "PS"):
            raise ParseError(f"circuit: unrecognized element line {line!r}")
    # Every row becomes (i, j, theta, phi); "PS i phi" reads as (i, i, 0, phi).
    fields = [p[1:] if bs else (p[1], p[1], "0", p[2]) for p, bs in zip(rows, coupler)]
    modes = _numbers(int, [t for f in fields for t in f[:2]], "circuit")
    angles = _numbers(float, [t for f in fields for t in f[2:]], "circuit")
    try:
        circuit = Circuit(width, columns=(modes, coupler, angles[0::2], angles[1::2]))
    except ValueError as exc:
        row = getattr(exc, "row", None)
        where = "" if row is None else f"invalid element {body[row]!r}: "
        raise ParseError(f"circuit: {where}{exc}") from None
    _last_circuit = text, circuit
    return circuit


def format_circuit(circuit: Circuit) -> str:
    lines = [f"width={circuit.width}"]
    lines += [
        f"BS {i} {j} {t:.17g} {p:.17g}" if bs else f"PS {i} {p:.17g}"
        for (i, j), bs, t, p in zip(*(column.tolist() for column in circuit.columns))
    ]
    return "\n".join(lines) + "\n"


def _read_text(path, kind: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{kind}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_matrix(path) -> np.ndarray:
    return parse_matrix(_read_text(path, "matrix"))


def read_amplitudes(path) -> np.ndarray:
    return parse_amplitudes(_read_text(path, "amplitudes"))


def read_circuit(path) -> Circuit:
    return parse_circuit(_read_text(path, "circuit"))


def write_circuit(path, circuit: Circuit) -> None:
    global _last_circuit
    text = format_circuit(circuit)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    _last_circuit = text, circuit
