"""Layering guard: no module of the package imports from a layer above it."""

import ast
from pathlib import Path

import pbdtest

# Lowest layer first; modules on one line may import each other's layer.
LAYERS = (
    ("calibrated", "distributions"),
    ("sampling", "distspec"),
    ("learner",),
    ("tester",),
    ("lowerbound", "oracles"),
    ("cli", "__init__"),
)
LEVEL = {module: i for i, names in enumerate(LAYERS) for module in names}
PACKAGE = Path(pbdtest.__file__).parent


def imported_modules(tree: ast.Module):
    """Package-internal module names imported anywhere in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "pbdtest" and rest:
                    yield rest.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                head, _, rest = (node.module or "").partition(".")
                if head != "pbdtest":
                    continue
            else:
                rest = node.module or ""
            if rest:
                yield rest.split(".")[0]
            else:  # ``from . import x``
                yield from (alias.name for alias in node.names)


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LEVEL)


def test_no_upward_imports():
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        importer = path.stem
        for target in imported_modules(ast.parse(path.read_text())):
            if LEVEL[target] > LEVEL[importer]:
                upward.append(f"{importer} -> {target}")
    assert upward == []
