"""Workload inputs and operations, generated from the run's seed.

A workload is a *round*: a fixed list of operations, each one or more CLI
commands with the exit codes they must return, the files they write and
the reference check of their output.  The benchmark repeats the round,
unchanged, for as long as it measures, so every count per operation repeats
exactly across runs with the same seed.  The seed fixes the matrices,
amplitudes, references, flags and the order of the round; the shape of the
round (widths, trial counts, command mix) is the same for every seed, so
runs with different seeds do the same amount of work.

The benchmark writes its input files itself, in the formats the README
documents, so the program receives only files and flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# mesh: circuit widths 32, 36, ..., 96, alternating between unitaries and
# contractions (which are dilated into twice as many modes).  Every operation
# has its own width, so the latency distribution has no gap for the median
# or the 90th percentile to sit on.
MESH_UNITARY_WIDTHS = tuple(range(32, 97, 8))
MESH_CONTRACTION_SIZES = tuple(range(18, 47, 4))
MESH_RUNS_PER_SYNTH = 2

SEARCH_TRIALS = 2000
# Nine two-reference searches cycle through |ref1 - ref2|^2 = 1, 3, 9 (as in
# criterion 07) while the datum alternates between the references; with the
# four variants below and the three short companions they make sixteen
# operations, so the median falls among the two-reference searches and the
# 90th percentile inside a variant.
SEARCH_SEPARATIONS = (1.0, 3.0, 9.0)
SEARCH_BASE_OPS = 9
# (references, neighbour spacing) of the wide searches; the spacing keeps
# the success rate between about 0.2 and 0.8.
SEARCH_WIDE = ((4, 3.5), (8, 4.5))

# small: fixed sizes at the ends of the ranges the CLI is used with in
# scripts (qkd n in 4..16, synth/run on 4..8 modes, at most ten trials).
SMALL_QKD_N = (4, 16)
SMALL_SYNTH = (("unitary", 8), ("dilation", 2))
SMALL_TRIALS = 10

# A traced run reports every per-layer metric, so every layer has to run on
# every workload.  mesh and search therefore carry three short operations of
# the layers their main operations do not reach: a search (detection,
# protocols) or a 4-mode contraction's synth and run (formats, linalg,
# synthesis, engine), a bellcat and a qkd.  They are the shortest operations
# of the round, so the median and the 90th percentile stay among the main ones.
COMPANION_TRIALS = 200
COMPANION_CONTRACTION = 4
COMPANION_QKD_N = 8


@dataclass
class Op:
    """One closed-loop operation: commands run back to back, then checked."""

    label: str
    commands: list[list[str]]
    expect: list[int]
    check: Callable[[checks.Capture], str | None] | None
    outputs: list[str] = field(default_factory=list)
    trials: int = 0


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]


def _num(x: float) -> str:
    return repr(float(x))


def _complex_flag(z: complex) -> str:
    return f"{_num(z.real)},{_num(z.imag)}"


def format_matrix(m: np.ndarray) -> str:
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    lines += [" ".join(f"{_num(z.real)} {_num(z.imag)}" for z in row) for row in m]
    return "\n".join(lines) + "\n"


def format_amplitudes(a: np.ndarray) -> str:
    lines = [f"n={a.shape[0]}"] + [f"{_num(z.real)} {_num(z.imag)}" for z in a]
    return "\n".join(lines) + "\n"


def haar_unitary(rng, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def contraction(rng, n: int) -> np.ndarray:
    """Random n x n matrix with largest singular value in [0.5, 0.95]."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z * (rng.uniform(0.5, 0.95) / np.linalg.svd(z, compute_uv=False)[0])


@dataclass
class MeshCase:
    """A matrix file, the circuit file ``synth`` writes, and amplitude files."""

    route: str
    matrix: np.ndarray
    width: int
    matrix_path: str
    circuit_path: str
    amplitudes: list[np.ndarray]
    amplitude_paths: list[str]

    def synth(self) -> list[str]:
        return ["synth", self.matrix_path, self.circuit_path]

    def run(self, k: int) -> list[str]:
        return ["run", self.circuit_path, self.amplitude_paths[k]]

    def check_synth(self, capture) -> str | None:
        text = capture.files[self.circuit_path]
        return checks.check_synth(
            capture.stdout[0], None if text is None else text.decode(), self.route, self.width
        )

    def check_runs(self, stdouts, ks) -> str | None:
        for out, k in zip(stdouts, ks):
            reason = checks.check_run(out, self.matrix, self.amplitudes[k])
            if reason:
                return reason
        return None


def mesh_case(rng, workdir: Path, tag: str, route: str, n: int, runs: int) -> MeshCase:
    """An n x n Haar unitary, or a contraction that takes the dilation route."""
    matrix = haar_unitary(rng, n) if route == "unitary" else contraction(rng, n)
    width = n if route == "unitary" else 2 * n
    matrix_path = workdir / f"m{tag}.txt"
    matrix_path.write_text(format_matrix(matrix), encoding="utf-8")
    amplitudes, paths = [], []
    for k in range(runs):
        a = np.zeros(width, dtype=complex)
        a[:n] = rng.standard_normal(n) + 1j * rng.standard_normal(n)  # ancillas dark
        path = workdir / f"a{tag}_{k}.txt"
        path.write_text(format_amplitudes(a), encoding="utf-8")
        amplitudes.append(a)
        paths.append(str(path))
    return MeshCase(route, matrix, width, str(matrix_path), str(workdir / f"c{tag}.txt"),
                    amplitudes, paths)


def synth_run_op(case: MeshCase) -> Op:
    """``synth`` of the case's matrix, then ``run`` on each amplitude file."""
    runs = range(len(case.amplitudes))
    commands = [case.synth()] + [case.run(k) for k in runs]

    def check(capture):
        return case.check_synth(capture) or case.check_runs(capture.stdout[1:], runs)

    return Op(f"{case.route}{case.matrix.shape[0]}", commands, [0] * len(commands), check,
              [case.circuit_path])


def mesh(rng, workdir: Path) -> Workload:
    shapes = [("unitary", n) for n in MESH_UNITARY_WIDTHS]
    shapes += [("dilation", n) for n in MESH_CONTRACTION_SIZES]
    ops = [
        synth_run_op(mesh_case(rng, workdir, str(i), *shapes[j], MESH_RUNS_PER_SYNTH))
        for i, j in enumerate(rng.permutation(len(shapes)))
    ]
    companions = [
        search_op(rng, workdir, "c", pair(rng, 3.0), int(rng.integers(1, 3)), COMPANION_TRIALS),
        bellcat_op(rng, "independent"),
        qkd_op(rng, COMPANION_QKD_N),
    ]
    warmup = [
        synth_run_op(mesh_case(rng, workdir, "w0", "unitary", 8, 1)),
        synth_run_op(mesh_case(rng, workdir, "w1", "dilation", 4, 1)),
    ]
    # The companions' warm-up fills the search-operator cache.
    return Workload(ops + companions, warmup + companions)


def pair(rng, distance_sq: float) -> tuple[complex, complex]:
    first = complex(*rng.standard_normal(2))
    return first, first + math.sqrt(distance_sq) * complex(np.exp(2j * np.pi * rng.random()))


def ring(rng, n: int, spacing: float) -> tuple[complex, ...]:
    """n references on a jittered ring with neighbours about ``spacing`` apart."""
    radius = spacing / (2 * math.sin(math.pi / n))
    centre = complex(*rng.standard_normal(2))
    angles = 2 * np.pi * (np.arange(n) + rng.uniform(-0.05, 0.05, n)) / n + rng.random()
    return tuple(centre + radius * complex(np.exp(1j * a)) for a in angles)


def search_op(rng, workdir: Path, tag: str, refs, match: int, trials: int,
              mode: str = "dilation", clicks: bool = False, z_limit=checks.Z_LIMIT) -> Op:
    """``search`` with the datum equal to reference ``match`` (1-based)."""
    data = refs[match - 1]
    seed = int(rng.integers(0, 2**31))
    outputs = [str(workdir / f"s{tag}.csv")]
    command = [
        "search",
        "--refs=" + ";".join(_complex_flag(r) for r in refs),
        "--data=" + _complex_flag(data),
        "--trials", str(trials),
        "--seed", str(seed),
        "--out", outputs[0],
    ]
    label = f"search{len(refs)}"
    if mode != "dilation":
        command += ["--mode", mode]
        label += "-" + mode
    if clicks:
        outputs.append(str(workdir / f"k{tag}.csv"))
        command += ["--clicks-out", outputs[1]]
        label += "-clicks"

    def check(capture):
        texts = [None if capture.files[p] is None else capture.files[p].decode() for p in outputs]
        return checks.check_search(capture.stdout[0], texts[0], texts[1] if clicks else None,
                                   refs, data, seed, trials, z_limit)

    return Op(label, [command], [0], check, outputs, trials)


def search(rng, workdir: Path) -> Workload:
    ops = [
        search_op(rng, workdir, str(i), pair(rng, SEARCH_SEPARATIONS[i % 3]), 1 + i % 2,
                  SEARCH_TRIALS)
        for i in range(SEARCH_BASE_OPS)
    ]
    ops.append(search_op(rng, workdir, "x", pair(rng, 3.0), int(rng.integers(1, 3)),
                         SEARCH_TRIALS, mode="explicit"))
    ops.append(search_op(rng, workdir, "k", pair(rng, 1.0), int(rng.integers(1, 3)),
                         SEARCH_TRIALS, clicks=True))
    for n, spacing in SEARCH_WIDE:
        ops.append(search_op(rng, workdir, f"n{n}", ring(rng, n, spacing),
                             int(rng.integers(1, n + 1)), SEARCH_TRIALS))
    ops = [ops[i] for i in rng.permutation(len(ops))]
    # A one-trial search per operation fills the identification-operator cache.
    warmup = []
    for op in ops:
        command = list(op.commands[0])
        command[command.index("--trials") + 1] = "1"
        warmup.append(Op("warmup", [command], [0], None))
    companions = [
        synth_run_op(mesh_case(rng, workdir, "c", "dilation", COMPANION_CONTRACTION, 1)),
        bellcat_op(rng, "independent"),
        qkd_op(rng, COMPANION_QKD_N),
    ]
    return Workload(ops + companions, warmup + companions)


def bellcat_op(rng, kind: str) -> Op:
    """``bellcat`` on inputs whose largest reachable cat amplitude is known.

    Orthogonal inputs of norm s give max_alpha = s/2 (the target matrix
    [t1, -t1] has largest singular value 2); anti-parallel inputs v2 = -v1
    give |v1|/sqrt(2).
    """
    s = rng.uniform(0.5, 2.0)
    target = str(rng.choice(sorted(checks.BELL_TARGETS)))
    if kind == "dependent":
        v1 = s * haar_unitary(rng, 2)[:, 0]
        v2 = -v1
        max_alpha = s / math.sqrt(2)
    else:
        w = s * haar_unitary(rng, 2)
        v1, v2 = w[:, 0], w[:, 1]
        max_alpha = s / 2
    factor = rng.uniform(1.2, 2.0) if kind == "infeasible" else rng.uniform(0.3, 0.9)
    alpha = factor * max_alpha * complex(np.exp(2j * np.pi * rng.random()))
    command = [
        "bellcat",
        "--v1=" + ",".join(_complex_flag(z) for z in v1),
        "--v2=" + ",".join(_complex_flag(z) for z in v2),
        "--alpha=" + _complex_flag(alpha),
        "--target", target,
    ]

    def check(capture):
        return checks.check_bellcat(capture.stdout[0], v1, v2, alpha, target, max_alpha)

    return Op(f"bellcat-{kind}", [command], [2 if kind == "infeasible" else 0], check)


def qkd_op(rng, n: int) -> Op:
    alpha = complex(*rng.uniform(-1.5, 1.5, 2))
    command = ["qkd", "--n", str(n), "--alpha=" + _complex_flag(alpha)]
    return Op(f"qkd{n}", [command], [0],
              lambda c: checks.check_phase_states(c.stdout[0], n, alpha))


def rejected_op(workdir: Path, tag: str, text: str, code: int, prefix: str) -> Op:
    """``synth`` on a file the program must refuse with ``code``."""
    path = workdir / f"bad{tag}.txt"
    path.write_text(text, encoding="utf-8")
    command = ["synth", str(path), str(workdir / f"cbad{tag}.txt")]
    return Op(f"reject{code}", [command], [code],
              lambda c: checks.check_error(c.stderr[0], prefix))


def small(rng, workdir: Path) -> Workload:
    ops = [bellcat_op(rng, "independent"), bellcat_op(rng, "dependent"),
           bellcat_op(rng, "infeasible")]
    ops += [qkd_op(rng, n) for n in SMALL_QKD_N]
    for route, n in SMALL_SYNTH:
        case = mesh_case(rng, workdir, route[0], route, n, 1)
        ops.append(Op(f"{route}{n}-synth", [case.synth()], [0], case.check_synth,
                      [case.circuit_path]))
        ops.append(Op(f"{route}{n}-run", [case.run(0)], [0],
                      lambda c, case=case: case.check_runs(c.stdout, [0])))
    for tag, refs, mode, clicks in (("a", pair(rng, 3.0), "dilation", False),
                                    ("b", pair(rng, 9.0), "explicit", True)):
        ops.append(search_op(rng, workdir, tag, refs, int(rng.integers(1, 3)),
                             SMALL_TRIALS, mode, clicks, z_limit=None))
    ops.append(rejected_op(workdir, "x", format_matrix(1.25 * haar_unitary(rng, 4)), 2,
                           "error: input is neither unitary nor a contraction"))
    ops.append(rejected_op(workdir, "h", "4 x\n1 0\n", 1, "error: matrix"))
    # The whole round once: fills the DFT-circuit and search-operator caches.
    return Workload(ops, list(ops))


WORKLOADS = {"mesh": mesh, "search": search, "small": small}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](np.random.default_rng(seed), workdir)
