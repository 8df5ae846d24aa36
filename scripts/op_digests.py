"""Print one output digest per benchmark operation, to compare two checkouts.

Builds each workload at each seed with the benchmark's own generators, runs
every warm-up and every operation once through ``benchmarks/run.py``'s
``load_cli`` and ``run_op``, and prints one line per operation:

    <workload>/<seed>/<index>/<label> <Capture.digest()>

Warm-ups come first in each workload, labelled ``warmup:<label>``.  The
digest, a sha256, covers exit codes, stdout, stderr and the written files
together with their paths, so the inputs are written under one fixed
``--workdir`` (absent or empty at the start, emptied before each workload
and removed at the end): run both checkouts with the same directory and
``diff`` the two outputs.

With ``--against DIR`` it then runs DIR's own ``scripts/op_digests.py``
with the same ``--workloads``, ``--seeds`` and ``--workdir``, prints each
line that differs to stderr, and exits 1 if any does.

Usage, from the root of a checkout:

    python3 scripts/op_digests.py --workdir /tmp/digests > digests.txt
    python3 scripts/op_digests.py --workloads small --seeds 1 --workdir /tmp/digests
    python3 scripts/op_digests.py --workdir /tmp/digests --against ../parent
"""

import argparse
import itertools
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (benchmarks/run.py)
import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", nargs="+", default=sorted(workloads.WORKLOADS),
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--workdir", type=Path, required=True,
                        help="fixed directory for the generated inputs and outputs")
    parser.add_argument("--against", type=Path,
                        help="another checkout whose digests must equal these")
    args = parser.parse_args()
    if args.workdir.exists() and any(args.workdir.iterdir()):
        parser.error(f"--workdir {args.workdir} must be absent or empty")

    lines = []
    for name in args.workloads:
        for seed in args.seeds:
            shutil.rmtree(args.workdir, ignore_errors=True)
            args.workdir.mkdir(parents=True)
            cli = run.load_cli()
            workload = workloads.build(name, seed, args.workdir)
            ops = [(f"warmup:{op.label}", op) for op in workload.warmup]
            ops += [(op.label, op) for op in workload.ops]
            for index, (label, op) in enumerate(ops):
                _, capture = run.run_op(cli, op)
                lines.append(f"{name}/{seed}/{index}/{label} {capture.digest()}")
                print(lines[-1], flush=True)
    shutil.rmtree(args.workdir, ignore_errors=True)
    if args.against is None:
        return 0

    command = [sys.executable, str(args.against.resolve() / "scripts" / "op_digests.py")]
    command += ["--workloads", *args.workloads, "--seeds", *map(str, args.seeds)]
    command += ["--workdir", str(args.workdir.resolve())]
    # From DIR, so that a relative PYTHONPATH such as "src" names DIR's sources.
    theirs = subprocess.run(command, cwd=args.against, stdout=subprocess.PIPE, text=True,
                            check=True).stdout.splitlines()
    differ = [(ours, other) for ours, other in itertools.zip_longest(lines, theirs)
              if ours != other]
    for ours, other in differ:
        print(f"this:    {ours}\nagainst: {other}", file=sys.stderr)
    print(f"{len(differ)} of {max(len(lines), len(theirs))} lines differ from {args.against}",
          file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
