"""Sweep the reference separation and compare empirical identification
success against the analytic rate 1 - exp(-d^2/3).

Usage: python scripts/search_success_sweep.py [--trials 20000] [--seed 0]
"""

import argparse
import math

import numpy as np

from cohcirc import SearchSpec, run_search, success_probability


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--separations",
        type=float,
        nargs="+",
        default=[0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 9.0, 16.0],
        help="values of |a1 - a2|^2 to sweep",
    )
    args = parser.parse_args()

    print(f"{'d^2':>6}  {'analytic':>10}  {'empirical':>10}  {'err/sigma':>9}")
    for case, dist_sq in enumerate(args.separations):
        d = math.sqrt(dist_sq)
        spec = SearchSpec((0.0, d), 0.0)
        base = args.seed + 1_000_000 * case
        identified = run_search(spec, seed=base, trials=args.trials).identified
        hits = np.count_nonzero(identified == 1)
        p = success_probability(0.0, d)
        empirical = hits / args.trials
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / args.trials)
        print(
            f"{dist_sq:6.2f}  {p:10.6f}  {empirical:10.6f}  "
            f"{abs(empirical - p) / sigma:9.2f}"
        )


if __name__ == "__main__":
    main()
