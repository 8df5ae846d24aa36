"""cohcirc benchmark: drives ``cohcirc.cli.main(argv)`` in-process.

One process, one client, closed loop: each operation is one or more CLI
commands on files the benchmark generated from ``--seed``, and the next
operation starts when the previous one returned.  Usage, from the root of a
checkout:

    python3 benchmarks/run.py --workload mesh --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --all --seed 1

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it measures once untraced and once with spans recorded,
and reports every per-layer metric; every workload runs every layer.
The last line of standard output is the result as one JSON object; the
line before it records the environment.  ``--all`` runs every workload both
ways and prints every metric by name with its unit.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported: OpenBLAS otherwise starts one
# thread per core, and the runs would contend with whatever else is running.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
SPEC_PATH = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 7
MIN_OPS = 100  # the 90th percentile needs ten samples above it


def percentile(values, q: float) -> float:
    """q-th percentile, linear between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_metrics(latencies, round_len: int) -> dict[str, float]:
    """Latency and throughput of whole rounds of ``round_len`` operations.

    Each operation of the round is taken at its median latency over the
    rounds, and ``op_p50_ms``/``op_p90_ms`` are percentiles over those
    medians; ``ops_per_s`` is the round's length over the median round
    time.  A stall of the host that hits a few repeats of an operation
    therefore moves none of them, while a slower program moves all three.
    """
    rounds = [latencies[i:i + round_len] for i in range(0, len(latencies), round_len)]
    per_op = [statistics.median(r[k] for r in rounds) for k in range(round_len)]
    return {
        "op_p50_ms": percentile(per_op, 50) * 1e3,
        "op_p90_ms": percentile(per_op, 90) * 1e3,
        "ops_per_s": round_len / statistics.median(sum(r) for r in rounds),
    }


def load_cli():
    """Import ``cohcirc.cli`` afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "cohcirc" or m.startswith("cohcirc.")]:
        del sys.modules[name]
    cli = importlib.import_module("cohcirc.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's src/")
    return cli


def run_op(cli, op: workloads.Op):
    """Run one operation; returns (seconds, capture).  Only the commands are timed."""
    codes, outs, errs = [], [], []
    t0 = perf_counter()
    for argv, expected in zip(op.commands, op.expect):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # a traceback is a failed operation, not a crash
                code = None
                err.write(traceback.format_exc())
        codes.append(code)
        outs.append(out.getvalue())
        errs.append(err.getvalue())
        if code != expected:
            break
    elapsed = perf_counter() - t0
    files = {}
    for path in op.outputs:
        try:
            files[path] = Path(path).read_bytes()
        except FileNotFoundError:
            files[path] = None
    return elapsed, checks.Capture(codes, outs, errs, files)


class Verifier:
    """Counts attempted and failed operations.

    An operation fails on an unexpected exit code, on a reference-check
    failure, or when its output digest differs from the first run of the
    same operation in this process (traced runs included).  Equal digests
    mean equal outputs, so each distinct output is checked once.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._first: dict[int, str] = {}
        self._verdicts: dict[tuple[int, str], str | None] = {}

    def record(self, position: int, op: workloads.Op, capture: checks.Capture) -> None:
        digest = capture.digest()
        self.attempted += 1
        if self._first.setdefault(position, digest) != digest:
            reason = "output differs from the first run of this operation"
        else:
            key = (position, digest)
            if key not in self._verdicts:
                self._verdicts[key] = self._judge(op, capture)
            reason = self._verdicts[key]
        if reason:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{op.label}: {reason}")

    @staticmethod
    def _judge(op, capture) -> str | None:
        if capture.codes != op.expect:
            tail = capture.stderr[-1].strip().splitlines()[-1:] if capture.stderr else []
            return f"exit codes {capture.codes}, expected {op.expect} {tail}"
        try:
            return op.check(capture)
        except Exception as exc:  # output the check could not even parse
            return f"unreadable output ({type(exc).__name__}: {exc})"


def run_round(cli, ops, verifier: Verifier, tracer=None) -> list[float]:
    """One pass over the round; the latency of each operation."""
    latencies = []
    for position, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id += 1
        elapsed, capture = run_op(cli, op)
        latencies.append(elapsed)
        verifier.record(position, op, capture)
    return latencies


def measure(cli, ops, seconds: float, verifier: Verifier) -> list[float]:
    """Whole rounds until ``seconds`` have passed and ``MIN_OPS`` ran."""
    latencies: list[float] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(latencies) < MIN_OPS:
        latencies += run_round(cli, ops, verifier)
    return latencies


def setup(name: str, seed: int, workdir: Path):
    """Import, generate and write the inputs, and warm up."""
    cli = load_cli()
    workload = workloads.build(name, seed, workdir)
    for op in workload.warmup:
        run_op(cli, op)
    return cli, workload


def freeze_heap() -> None:
    """Leave the set-up heap out of the collections the operations trigger.

    A CLI process starts with a small heap; this one also holds numpy, the
    benchmark and its inputs, which every full collection would rescan.
    """
    gc.collect()
    gc.freeze()


def run_untraced(name, seed, seconds, workdir):
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        cli, workload = setup(name, seed, workdir)
        times.append(perf_counter() - t0)
    freeze_heap()
    verifier = Verifier()
    latencies = measure(cli, workload.ops, seconds, verifier)
    metrics = {
        "setup_s": statistics.median(times),
        **latency_metrics(latencies, len(workload.ops)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return verifier, metrics, None


def run_traced(name, seed, seconds, workdir):
    """Untraced and traced rounds in turn; per-layer metrics of the traced ones.

    Alternating the rounds exposes both halves to the same machine load, so
    their ratio is the tracing overhead and not a drift between two halves.
    """
    cli, workload = setup(name, seed, workdir)
    freeze_heap()
    verifier = Verifier()
    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        plain += run_round(cli, workload.ops, verifier)
        tracer.install(sys.modules)
        try:
            traced += run_round(cli, workload.ops, verifier, tracer)
        finally:
            tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.stats(), tracer.counts, len(traced))
    trials = len(plain) // len(workload.ops) * sum(op.trials for op in workload.ops)
    if trials:
        metrics["trials_per_s"] = trials / sum(plain)
    round_len = len(workload.ops)
    metrics["trace.overhead_ratio"] = (latency_metrics(traced, round_len)["op_p50_ms"]
                                       / latency_metrics(plain, round_len)["op_p50_ms"])
    return verifier, metrics, tracer


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "cohcirc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def result_line(spec, trace: int, verifier: Verifier, values: dict) -> dict:
    """The contract's result object; units come from BENCHMARK.json."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    unknown = set(values) - set(declared)
    missing = set(declared) - set(values)
    if unknown or missing:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: {unknown or missing}")
    return {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in values.items()},
    }


def run_one(args) -> int:
    for required in (SRC / "cohcirc" / "__init__.py", SPEC_PATH):
        if not required.is_file():
            print(f"error: {required} is missing; nothing to measure", file=sys.stderr)
            return 2
    spec = load_spec()
    sys.path.insert(0, str(SRC))
    tmp_root = BENCH_DIR / ".tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        runner = run_traced if args.trace else run_untraced
        verifier, values, tracer = runner(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()
    result = result_line(spec, args.trace, verifier, values)
    env = environment(args)
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "result": result, "failures": verifier.reasons}
    if tracer is not None:
        record["spans"] = f"spans-{stem}.csv.gz"
        tracer.write_spans(RESULTS_DIR / record["spans"])
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for reason in verifier.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, in child processes; one table."""
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    summary = {}
    print(f"{'workload':<8} {'trace':>5}  {'metric':<40} {'value':>16}  unit")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False,
            )
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            env, result = json.loads(lines[-2])["env"], json.loads(lines[-1])
            summary[f"{workload}-trace{trace}"] = {"env": env, "result": result}
            rows = [("error_ratio", result["failed"] / result["attempted"], "ratio")]
            rows += [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
            for metric, value, unit in rows:
                print(f"{workload:<8} {trace:>5}  {metric:<40} {value:>16.6g}  {unit}")
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"summary-seed{args.seed}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, both ways")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None or args.seconds is None or args.seconds < 1:
        parser.error("--workload and --seconds >= 1 are required without --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
