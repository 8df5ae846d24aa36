"""Tabulate how the synthesized search circuit grows with database size.

For each N the dilated comparison map spans 2(N+1) modes; the complete
triangular mesh needs (N+1)(2N+1) couplers, while skipping entries that
are already zero gives a sparser equivalent circuit.

Exits 1 when a complete mesh has a coupler count other than
(N+1)(2N+1) or a sparse mesh compiles back with a residual above 1e-12.

Usage: python scripts/mesh_growth.py [--max-n 8]
"""

import argparse
import sys

import numpy as np

from cohcirc import comparison_map, compile_circuit, dilate, reck_decompose, search_circuit


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    args = parser.parse_args()

    print(f"{'N':>3} {'modes':>6} {'full mesh':>10} {'sparse':>7} {'formula':>8} {'residual':>9}")
    failures = []
    for n in range(2, args.max_n + 1):
        u = dilate(comparison_map(n))
        full = search_circuit(n)
        sparse = reck_decompose(u)
        residual = np.max(np.abs(compile_circuit(sparse) - u))
        print(
            f"{n:>3} {full.width:>6} {full.beamsplitter_count:>10} "
            f"{sparse.beamsplitter_count:>7} {(n + 1) * (2 * n + 1):>8} "
            f"{residual:>9.1e}"
        )
        if full.beamsplitter_count != (n + 1) * (2 * n + 1) or not residual <= 1e-12:
            failures.append(n)
    if failures:
        print(f"mesh counts or residuals out of bounds at N = {failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
