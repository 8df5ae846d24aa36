"""Command-line front end.

Subcommands: synth, run, search, qkd, bellcat.  Complex flags are
"re,im" pairs; lists of complexes are semicolon-separated (use
--flag=value for values starting with a minus sign).  Circuit files
keep the 0-based internal mode indices; printed port labels and CSV
port columns are 1-based.  Exit codes: 0 success, 1 parse/IO error,
2 domain error or out of memory.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import itertools
import math
import os
import sys
import warnings

import numpy as np

from . import linalg, protocols
from .engine import apply_circuit, mean_photon_number
from .errors import ContractionError, DimensionError, NonFiniteError, SynthesisError
from .formats import (
    ParseError,
    read_amplitudes,
    read_circuit,
    read_matrix,
    write_circuit,
)
from .synthesis import compile_circuit, dilate, reck_decompose

DOMAIN_ERRORS = (DimensionError, ContractionError, SynthesisError, NonFiniteError)
# Trials per batch in ``search``: bounds the memory of long runs.  A block's
# seeding temporaries (about 100 bytes per trial) stay in cache; on a 2-vCPU
# x86 host 2**13 seeded 1.45x faster per trial than 2**16.
SEARCH_BLOCK = 1 << 13


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the parse-error code.
    def error(self, message):
        raise ParseError(message)


def parse_complex(text: str) -> complex:
    """The complex number ``re,im``; ValueError on any other text."""
    re_part, im_part = text.split(",")
    return complex(float(re_part), float(im_part))


def _flag_type(convert, accept, expected: str):
    """argparse ``type`` converting with ``convert`` and checking ``accept``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


def _finite(values) -> bool:
    return all(map(cmath.isfinite, values))


def _complex_list(text: str) -> tuple[complex, ...]:
    return tuple(parse_complex(item) for item in text.split(";") if item.strip())


def _complex_pair(text: str) -> tuple[complex, complex]:
    re1, im1, re2, im2 = map(float, text.split(","))
    return complex(re1, im1), complex(re2, im2)


_count = _flag_type(int, lambda v: v >= 0, "a non-negative integer")
_positive_count = _flag_type(int, lambda v: v > 0, "a positive integer")
_positive = _flag_type(float, lambda v: 0 < v < math.inf, "a finite positive number")
_complex = _flag_type(parse_complex, cmath.isfinite, "a finite complex number 're,im'")
_complexes = _flag_type(
    _complex_list, lambda v: v and _finite(v), "';'-separated finite 're,im' pairs"
)
_pair = _flag_type(_complex_pair, _finite, "four finite numbers 're,im,re,im'")


def _print_amplitudes(out, starred: np.ndarray) -> None:
    lines = ["port  starred(re im)                    physical(re im)"]
    for port, z in enumerate(starred.tolist(), 1):
        p = z.conjugate()
        lines.append(f"{port:>4}  {z.real:+.12e} {z.imag:+.12e}  {p.real:+.12e} {p.imag:+.12e}")
    out.write("\n".join(lines) + "\n")


def cmd_synth(args) -> int:
    matrix = read_matrix(args.matrix)
    lines = []
    if matrix.shape[0] == matrix.shape[1] and linalg.is_unitary(matrix, args.tol):
        target, route = matrix, "unitary"
    else:
        target, route = dilate(matrix, args.tol), "dilation"
        lines.append(
            f"dilated {matrix.shape[0]}x{matrix.shape[1]} contraction into a "
            f"{target.shape[0]}-mode unitary; signal outputs on ports 1..{matrix.shape[0]}"
        )
    circuit = reck_decompose(target, args.tol)
    residual = linalg.max_abs(compile_circuit(circuit) - target)
    write_circuit(args.out, circuit)
    lines.append(
        f"route={route} modes={circuit.width} "
        f"beamsplitters={circuit.beamsplitter_count} "
        f"phase_shifters={circuit.phase_shifter_count} "
        f"residual={residual:.3e}"
    )
    print("\n".join(lines))
    return 0


def cmd_run(args) -> int:
    circuit = read_circuit(args.circuit)
    amplitudes = read_amplitudes(args.amplitudes)
    out = apply_circuit(circuit, amplitudes)
    before = mean_photon_number(amplitudes)
    after = mean_photon_number(out)
    _print_amplitudes(sys.stdout, out)
    print(f"photon number: in={before:.12g} out={after:.12g}")
    return 0


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: by inode (hard links too), by path if one is new."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


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


def cmd_search(args) -> int:
    if args.out and args.clicks_out and _same_file(args.out, args.clicks_out):
        raise ParseError(f"--out and --clicks-out name the same file {args.out!r}")
    if args.seed + args.trials > 2**64:
        raise ParseError(
            f"--seed {args.seed} with --trials {args.trials} needs seeds beyond 2**64 - 1"
        )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = protocols.SearchSpec(args.refs, args.data, c=args.c, mode=args.mode)
    if spec.match is None:
        raise ParseError("--data must match exactly one of --refs")
    for w in caught:  # coincident references warn only on an accepted search
        print(f"warning: {w.message}", file=sys.stderr)
    analytic = protocols.analytic_success_probability(spec)
    row_end = f",{analytic:.12g}\r\n"
    identified = ["", *map(str, range(1, spec.n + 1))]  # 0 is inconclusive
    labels = [str(port + 1) for port in range(1, spec.n + 1)]
    click_tails = [f",{label},{c}\r\n" for label in labels for c in "01"]  # port j, c: 2j + c

    with contextlib.ExitStack() as files:
        out, clicks_out = (
            files.enter_context(open(path, "w", newline="", encoding="utf-8")) if path else None
            for path in (args.out, args.clicks_out)
        )
        out = out or sys.stdout
        out.write("trial,identified,clicked_ports,p_succ_analytic\r\n")
        if clicks_out is not None:
            clicks_out.write("trial,port,clicked\r\n")
        successes = 0
        for start in range(0, args.trials, SEARCH_BLOCK):
            trials = min(SEARCH_BLOCK, args.trials - start)
            batch = protocols.run_search(spec, args.seed + start, trials=trials)
            # A row past its trial number depends only on the click pattern, so
            # each pattern that occurs is formatted once.
            _, first, which = np.unique(
                _pattern_keys(batch.clicked), return_index=True, return_inverse=True
            )
            suffixes = [
                f",{identified[k]},{';'.join(itertools.compress(labels, row))}{row_end}"
                for k, row in zip(batch.identified[first].tolist(), batch.clicked[first].tolist())
            ]
            out.write(_records(start, suffixes, which.reshape(trials, 1)))
            if clicks_out is not None:
                tail_index = batch.clicked + np.arange(0, 2 * spec.n, 2)
                clicks_out.write(_records(start, click_tails, tail_index))
            successes += np.count_nonzero(batch.identified == spec.match)
    empirical = successes / args.trials
    print(
        f"trials={args.trials} empirical_success={empirical:.6f} "
        f"analytic_success={analytic:.6f}",
        file=sys.stderr if not args.out else sys.stdout,
    )
    return 0


def cmd_qkd(args) -> int:
    starred = protocols.generate_phase_states(args.n, args.alpha)
    _print_amplitudes(sys.stdout, starred)
    return 0


def cmd_bellcat(args) -> int:
    result = protocols.bellcat_feasibility(args.v1, args.v2, args.alpha, args.target)
    if result.feasible:
        print("feasible")
        k = result.contraction
        for row in k:
            print("  " + "  ".join(f"{z.real:+.12g}{z.imag:+.12g}j" for z in row))
        print(f"max_alpha={result.max_alpha:.12g}")
        print(f"kernel_residual={result.kernel_residual:.3e}")
        return 0
    # Name the map's largest singular value when it is known and finite.
    sigma = abs(args.alpha) / result.max_alpha if result.max_alpha > 0 else math.inf
    if math.isfinite(sigma):
        print(f"infeasible (largest singular value {sigma:.12g} exceeds 1)")
    else:
        print("infeasible (no contraction maps these inputs onto the targets)")
    print(f"max_alpha={result.max_alpha:.12g}")
    return 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``cohcirc`` parser, built once per process: parsing mutates none of
    it, and every ``parse_args`` call returns a fresh namespace."""
    parser = _Parser(
        prog="cohcirc",
        description="Synthesize linear-optical circuits and propagate coherent amplitudes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}  # name -> subparser: main parses a command with it alone

    def command(name, func, help):
        p = parser.commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command("synth", cmd_synth, "decompose a matrix file into a circuit file")
    p.add_argument("matrix", help="input matrix file")
    p.add_argument("out", help="output circuit file")
    p.add_argument("--tol", type=_positive, default=linalg.UNITARY_TOL)

    p = command("run", cmd_run, "apply a circuit file to an amplitudes file")
    p.add_argument("circuit", help="circuit file")
    p.add_argument("amplitudes", help="starred amplitudes file")

    p = command("search", cmd_search, "run seeded database-search trials")
    p.add_argument("--refs", type=_complexes, required=True, help="references 're,im;re,im;...'")
    p.add_argument("--data", type=_complex, required=True, help="unknown datum as 're,im'")
    p.add_argument("--c", type=_positive, default=None, help="comparison scale")
    p.add_argument("--trials", type=_positive_count, default=1)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--mode", choices=protocols.SEARCH_MODES, default=protocols.DILATION)
    p.add_argument("--out", default=None, help="write result CSV here (default stdout)")
    p.add_argument("--clicks-out", default=None, help="also write per-click CSV here")

    p = command("qkd", cmd_qkd, "generate the n phase-encoded key states")
    p.add_argument("--n", type=_positive_count, required=True)
    p.add_argument("--alpha", type=_complex, required=True, help="base amplitude as 're,im'")

    p = command("bellcat", cmd_bellcat, "check Bell-cat distillation feasibility")
    p.add_argument("--v1", type=_pair, required=True, help="first component pair 're,im,re,im'")
    p.add_argument("--v2", type=_pair, required=True, help="second component pair 're,im,re,im'")
    p.add_argument("--alpha", type=_complex, required=True, help="target cat amplitude 're,im'")
    p.add_argument("--target", choices=sorted(protocols.BELL_TARGETS), default="B00")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None  # parses as the top level would
    try:
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help printed its text and asked to exit 0
        return exc.code
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a valid request too large to serve
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
