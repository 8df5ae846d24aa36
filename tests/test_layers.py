"""The package's modules form layers, and every import points strictly down.

errors -> linalg -> {detection, synthesis} -> {formats, protocols} -> cli;
``__init__`` sits above them all and only re-exports.  The test files mirror
the modules: each ``tests/test_<name>.py`` names a module or one of the
cross-cutting concerns in ``CROSS_CUTTING``.
"""

import ast
from pathlib import Path

import cohcirc

PACKAGE = Path(cohcirc.__file__).resolve().parent
LAYERS = [["errors"], ["linalg"], ["detection", "synthesis"], ["formats", "protocols"], ["cli"]]
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}
CROSS_CUTTING = {"acceptance", "cli_fuzz", "fock_oracle", "kernel", "layers", "public_api"}


def package_imports(path: Path) -> set[str]:
    """The package modules named by the ``from .`` imports of one file."""
    named = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                named.add(node.module.split(".")[0])
            else:  # from . import linalg, protocols
                named.update(alias.name for alias in node.names)
    return named


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(RANK)


def test_every_import_points_strictly_down_the_layers():
    upward = [
        (path.stem, imported)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for imported in sorted(package_imports(path))
        # A module missing from LAYERS fails on every import it makes or gets.
        if not RANK.get(imported, len(LAYERS)) < RANK.get(path.stem, -1)
    ]
    assert upward == []


def test_every_test_file_names_a_module_or_a_cross_cutting_concern():
    names = {path.stem.removeprefix("test_") for path in Path(__file__).parent.glob("test_*.py")}
    assert names - set(RANK) - CROSS_CUTTING == set()
