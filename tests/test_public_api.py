"""The public API holds only what is used or documented.

A name in ``cohcirc.__all__`` stays only if the package itself uses it,
or the README, the scripts or the acceptance tests use it as API.
"""

import re
from pathlib import Path

import cohcirc

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(cohcirc.__file__).resolve().parent


def readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def test_every_public_name_is_used_or_documented():
    package = [
        line
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    api_users = "\n".join(
        [readme(), (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
        + [path.read_text(encoding="utf-8") for path in sorted((ROOT / "scripts").glob("*.py"))]
    )
    unused = []
    for name in cohcirc.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        in_package = any(word.search(line) and not definition.match(line) for line in package)
        if not in_package and not word.search(api_users):
            unused.append(name)
    assert unused == []


def test_readme_quickstart_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", readme(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
