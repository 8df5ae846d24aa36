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
import operator
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
    if matrix.shape[0] == matrix.shape[1] and linalg.is_unitary(matrix, args.tol):
        target, route = matrix, "unitary"
    else:
        target, ports = dilate(matrix, args.tol)
        route = "dilation"
        print(
            f"dilated {matrix.shape[0]}x{matrix.shape[1]} contraction into a "
            f"{ports.width}-mode unitary; signal outputs on ports "
            f"{ports.output_ports[0] + 1}..{ports.output_ports[-1] + 1}"
        )
    circuit = reck_decompose(target, args.tol)
    residual = linalg.max_abs(compile_circuit(circuit) - target)
    write_circuit(args.out, circuit)
    print(
        f"route={route} modes={circuit.width} "
        f"beamsplitters={circuit.beamsplitter_count} "
        f"phase_shifters={circuit.phase_shifter_count} "
        f"residual={residual:.3e}"
    )
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


def cmd_search(args) -> int:
    if args.n is not None and args.n != len(args.refs):
        raise ParseError(f"--n {args.n} does not match {len(args.refs)} references")
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
    click_tails = [(f",{label},0\r\n", f",{label},1\r\n") for label in labels]

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
            block = range(start, min(start + SEARCH_BLOCK, args.trials))
            batch = protocols.run_search(spec, args.seed + start, trials=len(block))
            # A row past its trial number depends only on the click pattern, so
            # each pattern that occurs is formatted once.  Its key is the bool
            # row viewed as bytes, exact for any number of references.
            _, first, which = np.unique(
                batch.clicked.view(f"V{spec.n}")[:, 0], return_index=True, return_inverse=True
            )
            patterns = batch.clicked[first].tolist()
            suffixes = [
                f",{identified[k]},{';'.join(itertools.compress(labels, row))}{row_end}"
                for k, row in zip(batch.identified[first].tolist(), patterns)
            ]
            numbers, which = list(map(str, block)), which.tolist()
            out.write("".join(map(operator.add, numbers, map(suffixes.__getitem__, which))))
            if clicks_out is not None:
                # trial.join(["", tail_1, ..., tail_n]) is the trial's n records.
                parts = [["", *(tails[c] for tails, c in zip(click_tails, row))] for row in patterns]
                clicks_out.write("".join(map(str.join, numbers, map(parts.__getitem__, which))))
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
    query = protocols.BellcatQuery(args.v1, args.v2, args.alpha)
    result = protocols.bellcat_feasibility(query, bell_state=args.target)
    if result.feasible:
        print("feasible")
        k = result.contraction
        for row in k:
            print("  " + "  ".join(f"{z.real:+.12g}{z.imag:+.12g}j" for z in row))
        print(f"max_alpha={result.max_alpha:.12g}")
        print(f"kernel_residual={result.kernel_residual:.3e}")
        return 0
    # Name the map's largest singular value when it is known and finite.
    sigma = abs(query.alpha) / result.max_alpha if result.max_alpha > 0 else math.inf
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

    p = sub.add_parser("synth", help="decompose a matrix file into a circuit file")
    p.add_argument("matrix", help="input matrix file")
    p.add_argument("out", help="output circuit file")
    p.add_argument("--tol", type=_positive, default=linalg.UNITARY_TOL)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="apply a circuit file to an amplitudes file")
    p.add_argument("circuit", help="circuit file")
    p.add_argument("amplitudes", help="starred amplitudes file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("search", help="run seeded database-search trials")
    p.add_argument("--refs", type=_complexes, required=True, help="references 're,im;re,im;...'")
    p.add_argument("--data", type=_complex, required=True, help="unknown datum as 're,im'")
    p.add_argument("--n", type=_positive_count, default=None, help="expected reference count")
    p.add_argument("--c", type=_positive, default=None, help="comparison scale")
    p.add_argument("--trials", type=_positive_count, default=1)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument(
        "--mode", choices=protocols.SEARCH_MODES, default=protocols.DILATION
    )
    p.add_argument("--out", default=None, help="write result CSV here (default stdout)")
    p.add_argument("--clicks-out", default=None, help="also write per-click CSV here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("qkd", help="generate the n phase-encoded key states")
    p.add_argument("--n", type=_positive_count, required=True)
    p.add_argument("--alpha", type=_complex, required=True, help="base amplitude as 're,im'")
    p.set_defaults(func=cmd_qkd)

    p = sub.add_parser("bellcat", help="check Bell-cat distillation feasibility")
    p.add_argument("--v1", type=_pair, required=True, help="first component pair 're,im,re,im'")
    p.add_argument("--v2", type=_pair, required=True, help="second component pair 're,im,re,im'")
    p.add_argument("--alpha", type=_complex, required=True, help="target cat amplitude 're,im'")
    p.add_argument("--target", choices=sorted(protocols.BELL_TARGETS), default="B00")
    p.set_defaults(func=cmd_bellcat)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
