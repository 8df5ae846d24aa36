"""Check the batch click sampler's seeding against numpy, bit for bit.

Row t of ``cohcirc.detection._uniforms(start, trials, n)`` must equal
``np.random.default_rng(start + t).random(n)``.  The check covers
n = 1, 2, 3, 9 on bands of consecutive seeds starting at 0 and around
2**32, 2**63 and the top of the 64-bit range, and exits 1 on the first
mismatch.

Usage: python scripts/check_seeding.py [--seeds 1000000]
"""

import argparse
import sys

import numpy as np

from cohcirc.detection import _uniforms

WIDTHS = (1, 2, 3, 9)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=1_000_000, help="seeds compared in all")
    args = parser.parse_args()

    band = -(-args.seeds // (4 * len(WIDTHS)))
    for n in WIDTHS:
        for start in (0, 2**32 - band // 2, 2**63 - band // 2, 2**64 - band):
            expected = [np.random.default_rng(start + t).random(n) for t in range(band)]
            rows = np.flatnonzero((_uniforms(start, band, n) != expected).any(axis=1))
            if rows.size:
                print(f"n={n}: seed {start + int(rows[0])} differs from default_rng")
                return 1
            print(f"n={n}: seeds {start}..{start + band - 1} equal")
    print(f"{4 * len(WIDTHS) * band} seeds equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
