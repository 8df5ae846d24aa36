"""Command-line front end.

Subcommands synth, run, search, qkd and bellcat; every text format lives
in ``formats``.  Exit codes: 0 success, 1 parse/IO error, 2 domain error
or out of memory.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import math
import os
import sys
import warnings

import numpy as np

from . import formats, linalg, protocols
from .errors import ContractionError, DimensionError, NonFiniteError, SynthesisError
from .formats import ParseError, read_amplitudes, read_circuit, read_matrix, write_circuit
from .linalg import mean_photon_number
from .synthesis import apply_circuit, compile_circuit, dilate, reck_decompose

DOMAIN_ERRORS = (DimensionError, ContractionError, SynthesisError, NonFiniteError)
# Trials per batch in ``search``: bounds the memory of long runs.  A block's
# seeding temporaries (about 100 bytes per trial) stay in cache; on a 2-vCPU
# x86 host 2**13 seeded 1.45x faster per trial than 2**16.
SEARCH_BLOCK = 1 << 13
# ``synth`` exits 2 when its circuit misses the target by more than this many
# tolerances (``reck_decompose`` promises ~10*tol).  Over fuzz-like accepted
# inputs the largest residual/tol measured was 2.5, at every tol from 1e-14
# to ``linalg.MAX_TOL``.
RESIDUAL_TOLS = 10


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


def _nonempty_finite(values) -> bool:
    return bool(values) and all(map(cmath.isfinite, values))


def _complex_list(text: str) -> tuple[complex, ...]:
    return tuple(parse_complex(item) for item in text.split(";") if item.strip())


def _complex_pair(text: str) -> tuple[complex, complex]:
    re1, im1, re2, im2 = map(float, text.split(","))
    return complex(re1, im1), complex(re2, im2)


_count = _flag_type(int, lambda v: v >= 0, "a non-negative integer")
_positive_count = _flag_type(int, lambda v: v > 0, "a positive integer")
_positive = _flag_type(float, lambda v: 0 < v < math.inf, "a finite positive number")
_tol = _flag_type(
    lambda text: linalg.check_tol(float(text)),
    lambda v: v > 0,
    f"a positive number at most {linalg.MAX_TOL:g}",
)
_complex = _flag_type(parse_complex, cmath.isfinite, "a finite complex number 're,im'")
_complexes = _flag_type(_complex_list, _nonempty_finite, "';'-separated finite 're,im' pairs")
_pair = _flag_type(_complex_pair, _nonempty_finite, "four finite numbers 're,im,re,im'")


def cmd_synth(args) -> int:
    matrix = read_matrix(args.matrix)
    lines = []
    try:
        target, route, circuit = matrix, "unitary", reck_decompose(matrix, args.tol)
    except SynthesisError:  # Reck refuses only a non-square or non-unitary map
        target, route = dilate(matrix, args.tol), "dilation"
        lines.append(
            f"dilated {matrix.shape[0]}x{matrix.shape[1]} contraction into a "
            f"{target.shape[0]}-mode unitary; signal outputs on ports 1..{matrix.shape[0]}"
        )
        circuit = reck_decompose(target, args.tol)
    residual = linalg.max_abs(compile_circuit(circuit) - target)
    if not residual <= RESIDUAL_TOLS * args.tol:
        raise SynthesisError(
            f"the circuit misses its target by {residual:.3e}, "
            f"more than {RESIDUAL_TOLS} times --tol {args.tol:g}"
        )
    write_circuit(args.out, circuit)
    lines.append(
        f"route={route} modes={circuit.width} beamsplitters={circuit.beamsplitter_count} "
        f"phase_shifters={circuit.phase_shifter_count} residual={residual:.3e}"
    )
    print("\n".join(lines))
    return 0


def cmd_run(args) -> int:
    circuit = read_circuit(args.circuit)
    amplitudes = read_amplitudes(args.amplitudes)
    out = apply_circuit(circuit, amplitudes)
    before, after = mean_photon_number(amplitudes), mean_photon_number(out)
    sys.stdout.write(formats.amplitude_table(out))
    print(f"photon number: in={before:.12g} out={after:.12g}")
    return 0


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: by inode (hard links too), by path if one is new."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


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
    with contextlib.ExitStack() as files:
        out, clicks_out = (
            files.enter_context(open(path, "w", newline="", encoding="utf-8")) if path else None
            for path in (args.out, args.clicks_out)
        )
        out = out or sys.stdout
        out.write(formats.SEARCH_HEADER)
        if clicks_out is not None:
            clicks_out.write(formats.CLICKS_HEADER)
        successes = 0
        for start in range(0, args.trials, SEARCH_BLOCK):
            trials = min(SEARCH_BLOCK, args.trials - start)
            batch = protocols.run_search(spec, args.seed + start, trials=trials)
            out.write(formats.search_rows(start, batch.identified, batch.clicked, analytic))
            if clicks_out is not None:
                clicks_out.write(formats.click_rows(start, batch.clicked))
            successes += np.count_nonzero(batch.identified == spec.match)
    print(
        f"trials={args.trials} empirical_success={successes / args.trials:.6f} "
        f"analytic_success={analytic:.6f}",
        file=sys.stderr if not args.out else sys.stdout,
    )
    return 0


def cmd_qkd(args) -> int:
    sys.stdout.write(formats.amplitude_table(protocols.generate_phase_states(args.n, args.alpha)))
    return 0


def cmd_bellcat(args) -> int:
    result = protocols.bellcat_feasibility(args.v1, args.v2, args.alpha, args.target)
    if result.feasible:
        print("feasible")
        for row in result.contraction:
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
    p.add_argument("--tol", type=_tol, default=linalg.UNITARY_TOL)

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
