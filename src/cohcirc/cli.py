"""Command-line front end.

Subcommands: synth, run, search, qkd, bellcat.  Complex flags are
"re,im" pairs; lists of complexes are semicolon-separated (use
--flag=value for values starting with a minus sign).  Circuit files
keep the 0-based internal mode indices; printed port labels and CSV
port columns are 1-based.  Exit codes: 0 success, 1 parse/IO error,
2 domain error.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import itertools
import math
import sys

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
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected 're,im', got {text!r}")
    try:
        value = complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ParseError(f"cannot parse complex value {text!r}") from None
    if not cmath.isfinite(value):
        raise ParseError(f"complex value must be finite, got {text!r}")
    return value


def parse_complex_list(text: str) -> tuple[complex, ...]:
    items = [tok for tok in text.split(";") if tok.strip()]
    if not items:
        raise ParseError("expected a semicolon-separated list of 're,im' pairs")
    return tuple(parse_complex(tok) for tok in items)


def parse_complex_pair(text: str) -> tuple[complex, complex]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ParseError(f"expected 're,im,re,im', got {text!r}")
    return parse_complex(",".join(parts[:2])), parse_complex(",".join(parts[2:]))


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


_count = _flag_type(int, lambda v: v >= 0, "a non-negative integer")
_positive_count = _flag_type(int, lambda v: v > 0, "a positive integer")
_positive = _flag_type(float, lambda v: 0 < v < math.inf, "a finite positive number")


def _print_amplitudes(out, starred: np.ndarray) -> None:
    print("port  starred(re im)                    physical(re im)", file=out)
    for index, z in enumerate(starred):
        p = np.conj(z)
        print(
            f"{index + 1:>4}  {z.real:+.12e} {z.imag:+.12e}  "
            f"{p.real:+.12e} {p.imag:+.12e}",
            file=out,
        )


def cmd_synth(args) -> int:
    matrix = read_matrix(args.matrix)
    tol = args.tol
    square = matrix.shape[0] == matrix.shape[1]
    if square and linalg.is_unitary(matrix, tol):
        target = matrix
        route = "unitary"
    else:
        sigma = linalg.spectral_norm(matrix)
        if sigma > 1 + tol:
            raise ContractionError(
                f"input is neither unitary nor a contraction "
                f"(largest singular value {sigma:.12g})"
            )
        target, ports = dilate(matrix, tol)
        route = "dilation"
        print(
            f"dilated {matrix.shape[0]}x{matrix.shape[1]} contraction into a "
            f"{ports.width}-mode unitary; signal outputs on ports "
            f"{ports.output_ports[0] + 1}..{ports.output_ports[-1] + 1}"
        )
    circuit = reck_decompose(target, tol)
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
    references = parse_complex_list(args.refs)
    if args.n is not None and args.n != len(references):
        raise ParseError(f"--n {args.n} does not match {len(references)} references")
    if args.seed + args.trials > 2**64:
        raise ParseError(
            f"--seed {args.seed} with --trials {args.trials} needs seeds beyond 2**64 - 1"
        )
    spec = protocols.SearchSpec(references, parse_complex(args.data), c=args.c)
    analytic = protocols.analytic_success_probability(spec)
    true_index = spec.match
    labels = [str(port + 1) for port in range(1, spec.n + 1)]

    with contextlib.ExitStack() as files:
        out, clicks_out = (
            files.enter_context(open(path, "w", newline="", encoding="utf-8")) if path else None
            for path in (args.out, args.clicks_out)
        )
        writer = csv.writer(out or sys.stdout)
        click_writer = csv.writer(clicks_out) if clicks_out else None
        writer.writerow(["trial", "identified", "clicked_ports", "p_succ_analytic"])
        if click_writer is not None:
            click_writer.writerow(["trial", "port", "clicked"])
        successes = 0
        for start in range(0, args.trials, SEARCH_BLOCK):
            trials = range(start, min(start + SEARCH_BLOCK, args.trials))
            batch = protocols.run_search(
                spec, args.seed + start, mode=args.mode, trials=len(trials)
            )
            # Each trial's clicked port labels, joined by ";".
            clicked = np.where(batch.clicked[:, 0], labels[0], "")
            for label, column in zip(labels[1:], batch.clicked.T[1:]):
                clicked = np.char.add(clicked, np.where(column, ";" + label, ""))
            writer.writerows(
                zip(
                    trials,
                    [k or "" for k in batch.identified.tolist()],
                    np.char.lstrip(clicked, ";").tolist(),
                    itertools.repeat(f"{analytic:.12g}"),
                )
            )
            if click_writer is not None:
                click_writer.writerows(
                    zip(
                        (trial for trial in trials for _ in labels),
                        itertools.cycle(labels),
                        batch.clicked.ravel().view(np.int8).tolist(),
                    )
                )
            if true_index is None:
                successes += np.count_nonzero(batch.identified)
            else:
                successes += np.count_nonzero(batch.identified == true_index)
    empirical = successes / args.trials
    print(
        f"trials={args.trials} empirical_success={empirical:.6f} "
        f"analytic_success={analytic:.6f}",
        file=sys.stderr if not args.out else sys.stdout,
    )
    return 0


def cmd_qkd(args) -> int:
    starred = protocols.generate_phase_states(args.n, parse_complex(args.alpha))
    _print_amplitudes(sys.stdout, starred)
    return 0


def cmd_bellcat(args) -> int:
    query = protocols.BellcatQuery(
        parse_complex_pair(args.v1), parse_complex_pair(args.v2), parse_complex(args.alpha)
    )
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cohcirc",
        description="Synthesize linear-optical circuits and propagate coherent amplitudes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="decompose a matrix file into a circuit file")
    p.add_argument("matrix", help="input matrix file")
    p.add_argument("out", help="output circuit file")
    p.add_argument("--tol", type=_positive, default=1e-10)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="apply a circuit file to an amplitudes file")
    p.add_argument("circuit", help="circuit file")
    p.add_argument("amplitudes", help="starred amplitudes file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("search", help="run seeded database-search trials")
    p.add_argument("--refs", required=True, help="references as 're,im;re,im;...'")
    p.add_argument("--data", required=True, help="unknown datum as 're,im'")
    p.add_argument("--n", type=int, default=None, help="expected reference count")
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
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True, help="base amplitude as 're,im'")
    p.set_defaults(func=cmd_qkd)

    p = sub.add_parser("bellcat", help="check Bell-cat distillation feasibility")
    p.add_argument("--v1", required=True, help="first component pair 're,im,re,im'")
    p.add_argument("--v2", required=True, help="second component pair 're,im,re,im'")
    p.add_argument("--alpha", required=True, help="target cat amplitude 're,im'")
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


if __name__ == "__main__":
    sys.exit(main())
