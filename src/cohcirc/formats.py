"""Every text format of the package: files read and written, and printed tables.

Matrix:      first line "rows cols", then rows*cols "re im" pairs,
             whitespace-separated and row-major; scientific notation is accepted.
Amplitudes:  first line "n=<width>", then one "re im" line per starred
             amplitude.
Circuit:     first line "width=<n>", then one element per line in
             application order, either "BS <i> <j> <theta> <phi>" or
             "PS <i> <phi>".  Modes are 0-based, angles in radians and
             written with 17 significant digits.
Amplitude table (``run`` and ``qkd``): a header, then per port the
             1-based port right-aligned in 4 columns and the starred and
             physical (conjugate) amplitudes as "re im", each ``+.12e``.
Search CSV:  "trial,identified,clicked_ports,p_succ_analytic" rows and
             "trial,port,clicked" records, each line ending in "\r\n".
             Trials count from 0; ``identified`` is the 1-based
             reference, empty when inconclusive; ports are 1-based, the
             comparison ports 2 ... n + 1 (``clicked_ports`` joins those
             that clicked with ";"); ``clicked`` is 0 or 1.

The last circuit text this process wrote with :func:`write_circuit` or
parsed with :func:`parse_circuit` is kept with its :class:`Circuit`, and
parsing that same text again returns that object, with any layers it has
already lowered.  ``.17g`` round-trips every finite double, sign of zero
included, so the kept circuit holds the values a fresh parse would.
Treat a returned circuit as read-only: it may be shared.
"""

from __future__ import annotations

import itertools

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
    return (values[0::2] + 1j * values[1::2]).reshape(rows, cols)


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


def amplitude_table(starred: np.ndarray) -> str:
    lines = ["port  starred(re im)                    physical(re im)"]
    for port, z in enumerate(starred.tolist(), 1):
        p = z.conjugate()
        lines.append(f"{port:>4}  {z.real:+.12e} {z.imag:+.12e}  {p.real:+.12e} {p.imag:+.12e}")
    return "\n".join(lines) + "\n"


SEARCH_HEADER = "trial,identified,clicked_ports,p_succ_analytic\r\n"
CLICKS_HEADER = "trial,port,clicked\r\n"


def _pattern_keys(clicked: np.ndarray) -> np.ndarray:
    """Exact bool-row keys: the bits as the narrowest unsigned int, beyond 64 the bytes."""
    trials, n = clicked.shape
    if n > 64:
        return clicked.view(f"V{n}")[:, 0]
    width = 1 << ((n - 1) // 8).bit_length()  # 1, 2, 4 or 8 bytes
    bits = np.zeros((trials, 8 * width), bool)  # whole bytes per row: one flat pack
    bits[:, :n] = clicked
    return np.packbits(bits).view(f"u{width}")


def _records(start: int, pieces: list[str], index: np.ndarray) -> str:
    """Trial ``start + t``'s records ``str(start + t) + pieces[i]``, i in row t of
    ``index``.  Trials 10q ... 10q + 9 share the head ``str(q)`` (empty for q = 0),
    so a decade is one join of its head over its ``digit + piece`` strings."""
    trials, per_trial = index.shape
    table = np.array([[d + piece for piece in pieces] for d in "0123456789"], dtype=object)
    cells = table[((np.arange(trials) + start % 10) % 10)[:, None], index].ravel().tolist()
    step, end = 10 * per_trial, trials * per_trial
    edges = [0, *range(step - start % 10 * per_trial, end, step), end]
    text = []
    for q, lo, hi in zip(itertools.count(start // 10), edges, edges[1:]):
        head = str(q) if q else ""
        text += head, head.join(cells[lo:hi])
    return "".join(text)


def search_rows(start: int, identified: np.ndarray, clicked: np.ndarray, analytic: float) -> str:
    """The result rows of trials ``start ...`` of one batch; 0 identifies nothing."""
    n, row_end = clicked.shape[1], f",{analytic:.12g}\r\n"
    names, labels = ["", *map(str, range(1, n + 1))], [str(port) for port in range(2, n + 2)]
    # Past its trial number a row depends only on its click pattern: format each once.
    _, first, which = np.unique(_pattern_keys(clicked), return_index=True, return_inverse=True)
    suffixes = [
        f",{names[k]},{';'.join(itertools.compress(labels, row))}{row_end}"
        for k, row in zip(identified[first].tolist(), clicked[first].tolist())
    ]
    return _records(start, suffixes, which.reshape(-1, 1))


def click_rows(start: int, clicked: np.ndarray) -> str:
    """The click records of trials ``start ...`` of one batch, a port per line."""
    n = clicked.shape[1]
    tails = [f",{port},{c}\r\n" for port in range(2, n + 2) for c in "01"]  # index 2j + c
    return _records(start, tails, clicked + np.arange(0, 2 * n, 2))
