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

Usage, from the root of a checkout:

    python3 scripts/op_digests.py --workdir /tmp/digests > digests.txt
    python3 scripts/op_digests.py --workloads small --seeds 1 --workdir /tmp/digests
"""

import argparse
import shutil
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
    args = parser.parse_args()
    if args.workdir.exists() and any(args.workdir.iterdir()):
        parser.error(f"--workdir {args.workdir} must be absent or empty")

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
                print(f"{name}/{seed}/{index}/{label} {capture.digest()}")
    shutil.rmtree(args.workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
