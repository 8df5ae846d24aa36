"""Mutation probe: flip each comparison in src/cohcirc and run the tests on each mutant.

Every comparison operator gives its negation (``<`` -> ``>=``, ``==`` ->
``!=``, ...) and, for an ordering, its boundary twin (``<`` -> ``<=``,
``>`` -> ``>=``, ...).  A mutant is killed when ``pytest -x`` fails on a
copy of the tree that holds it, or runs past 15 minutes.  The script
prints each survivor and exits 1 if one of them is not in
``EQUIVALENT``, which names each known survivor by file and mutated
source line and says why no test can kill it.  Stdlib only; a full run
takes about 14 minutes with two jobs, so it is run by hand, not in CI:

    python scripts/mutants.py [--jobs 2] [--only protocols.py ...]
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLIPS = {
    "<": (">=", "<="),
    "<=": (">", "<"),
    ">": ("<=", ">="),
    ">=": ("<", ">"),
    "==": ("!=",),
    "!=": ("==",),
}
# (file, mutated line with its indentation stripped) -> why no test can kill it.
EQUIVALENT = {
    ("synthesis.py", "at = free[i] if free[i] >= free[j] else free[j]"): (
        "both forms take the larger of two values, and agree when they are equal"
    ),
    ("synthesis.py", "if k.size <= row:"): (
        "with k.size == row, k selects every entry, so the subset equals the whole row"
    ),
    ("synthesis.py", "(k,) = (size >= tol).nonzero()"): (
        "nulling an entry of size tol moves the diagonal by less than half an ulp "
        "(|a_k| = tol on [[1, -a], [a, 1]])"
    ),
    ("detection.py", "return inc_hi + state_hi + (lo <= inc_lo), lo, inc_hi, inc_lo"): (
        "lo == inc_lo only when the 64-bit state limb is 0, a 2**-64 event no known seed hits"
    ),
    ("detection.py", "return hi + (lo <= inc_lo), lo"): (
        "lo == inc_lo only when the 64-bit product limb is 0, a 2**-64 event no known seed hits"
    ),
    (
        "detection.py",
        "return np.random.default_rng(seed).random(len(probabilities)) <= probabilities",
    ): (
        "differs only when a uniform, a multiple of 2**-53, equals p exactly"
    ),
    ("detection.py", "return _uniforms(seed, trials, len(probabilities)) <= probabilities"): (
        "differs only when a uniform, a multiple of 2**-53, equals p exactly"
    ),
    ("protocols.py", "if abs(scale - max_comparison_scale(2)) >= 1e-12:"): (
        "within 1e-12 of 1/sqrt(3) the difference is exact, a multiple of 2**-53, "
        "and 1e-12 is not one"
    ),
}
TREE = ("src", "tests", "scripts", "pyproject.toml", "README.md")


def mutants(path: Path):
    """(mutated line, mutated source) for each flip of each comparison in ``path``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines(keepends=True)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.OP or token.string not in FLIPS:
            continue
        (row, col), (_, end) = token.start, token.end
        for flip in FLIPS[token.string]:
            line = lines[row - 1][:col] + flip + lines[row - 1][end:]
            yield line.strip(), "".join(lines[: row - 1] + [line] + lines[row:])


def killed(name: str, mutated: str | None, scratch: Path) -> bool:
    """Whether tier-1 fails on a copy of the tree with ``name`` replaced by ``mutated``."""
    tree = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for part in TREE:
            copy = shutil.copytree if (ROOT / part).is_dir() else shutil.copy
            copy(ROOT / part, tree / part)
        if mutated is not None:
            (tree / "src" / "cohcirc" / name).write_text(mutated, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
        try:
            done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, timeout=900)
        except subprocess.TimeoutExpired:
            return True
        return done.returncode != 0
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=2, help="mutants tested at a time")
    parser.add_argument("--only", nargs="+", default=None, help="module files to mutate")
    args = parser.parse_args()
    files = sorted((ROOT / "src" / "cohcirc").glob("*.py"))
    cases = [
        (path.name, line, mutated)
        for path in files
        if args.only is None or path.name in args.only
        for line, mutated in mutants(path)
    ]
    with tempfile.TemporaryDirectory() as scratch:
        if killed("", None, Path(scratch)):
            print("tier-1 fails on the unmutated tree", file=sys.stderr)
            return 2
        with ThreadPoolExecutor(args.jobs) as pool:
            results = list(pool.map(lambda c: killed(c[0], c[2], Path(scratch)), cases))
    survivors = [(name, line) for (name, line, _), dead in zip(cases, results) if not dead]
    unexpected = [key for key in survivors if key not in EQUIVALENT]
    for name, line in survivors:
        reason = EQUIVALENT.get((name, line), "NOT EQUIVALENT: no test notices it")
        print(f"survived {name}: {line}  -- {reason}")
    print(
        f"mutants={len(cases)} killed={len(cases) - len(survivors)} "
        f"survived={len(survivors)} unexpected={len(unexpected)}"
    )
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
