"""Layering guard: no module of the package imports from a layer above it."""

import ast
import importlib
import os
import subprocess
import sys
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


def test_public_names_resolve():
    """Every ``__all__`` entry and every name the package root imports exists."""
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "pbdtest" if path.stem == "__init__" else f"pbdtest.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            source = importlib.import_module(f"pbdtest.{node.module}")
            missing += [
                f"pbdtest.{node.module}.{a.name}" for a in node.names if not hasattr(source, a.name)
            ]
    assert missing == []


# Splits of one ``SampleStream`` share one draw count, so no run may go
# on a parallel thread or process.
CONCURRENCY = {"concurrent", "threading", "multiprocessing", "_thread"}


def test_nothing_runs_in_parallel():
    """No module of the package imports a thread or process pool, even inside a function."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.stem} -> {name}" for name in names if name.split(".")[0] in CONCURRENCY
            ]
    assert found == []


# PMF builders whose ``tail_cut`` default (full support, or the shifted
# Poisson's truncation) is their own contract, not the test's constant.
PMF_BUILDERS = {"pbd_pmf", "binomial_pmf", "translated_poisson_pmf"}


def test_constants_live_in_test_config():
    """Tunable constants have one home: the field defaults of ``calibrated.TestConfig``.

    Outside ``calibrated`` no function takes a ``*_const`` parameter, with
    or without a default: a stage reads its constants, and the sample
    counts derived from them, from the config it is handed.
    """
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        module_names = [
            t.id
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(t, ast.Name)
        ]
        if path.stem != "calibrated":
            stray += [f"{path.stem}.{name}" for name in module_names if name.endswith("_CONST")]
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name in PMF_BUILDERS:
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            if path.stem != "calibrated":
                stray += [
                    f"{path.stem}.{node.name}({a.arg})"
                    for a in positional + args.kwonlyargs
                    if a.arg.endswith("_const")
                ]
            defaulted = positional[len(positional) - len(args.defaults) :] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            stray += [
                f"{path.stem}.{node.name}({a.arg}=...)" for a in defaulted if a.arg == "tail_cut"
            ]
    assert stray == []


# Layers 0-3: the modules a run of the test reads.
RUNTIME = ("calibrated", "distributions", "sampling", "distspec", "learner", "tester")


def names_read(tree: ast.Module) -> set[str]:
    """Names and attributes read at module level, outside ``__all__``.

    A name read inside the def, class or assignment that binds it, such as
    a recursive call or a constructor call in a method, does not count.
    """
    read = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = {stmt.name}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            bound = {t.id for t in targets if isinstance(t, ast.Name)}
        else:
            bound = set()
        if "__all__" in bound:
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name not in bound:
                read.add(name)
    return read


def test_runtime_names_are_read():
    """Every public name of layers 0-3 is read by some module of the package."""
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            read |= names_read(ast.parse(path.read_text()))
    unread = [
        f"{stem}.{name}"
        for stem in RUNTIME
        for name in importlib.import_module(f"pbdtest.{stem}").__all__
        if name not in read
    ]
    assert unread == []


# Moved to ``oracles`` or deleted; the package root no longer exports them.
REMOVED_FROM_ROOT = (
    "BinomialHypothesis",
    "BoundReport",
    "Closeness",
    "MomentEstimates",
    "SparseHypothesis",
    "ell1_distance",
    "ell2_sq_distance",
    "ell_inf_distance",
    "estimate_mean_var",
    "indicator_chernoff_bound",
    "poisson_tail_bound",
    "simple_tolerant_identity_test",
    "tp_approx_bounds",
    "tp_pair_tv_bound",
)


def named_outside_sampling(names: set[str]) -> list[str]:
    """``module.name`` for each of ``names`` that a module other than
    ``sampling`` writes as a name, an attribute or an import."""
    named = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "sampling":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            if name in names:
                named.append(f"{path.stem}.{name}")
    return named


def test_only_sampling_builds_a_generator():
    """Seeded generators come from ``sampling.seeded_generator`` alone."""
    assert named_outside_sampling({"Philox", "SeedSequence", "default_rng"}) == []


def test_only_sampling_draws_counts():
    """Multinomial counts come from ``SampleStream`` alone, the one place
    that skips a source's negligible lead, and skips it exactly."""
    assert named_outside_sampling({"multinomial", "random_raw"}) == []


def test_removed_names_stay_out_of_the_root():
    assert [name for name in REMOVED_FROM_ROOT if hasattr(pbdtest, name)] == []


def test_every_parameter_is_read():
    """Every parameter of every function and lambda, ``self`` and ``cls``
    aside, is loaded somewhere in its body: a knob that no code reads goes."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            loaded = {
                sub.id
                for stmt in body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread += [
                f"{path.stem}.{name}({a.arg})"
                for a in params
                if a.arg not in ("self", "cls") and a.arg not in loaded
            ]
    assert unread == []


# Run in a fresh interpreter: a verdict that builds no sparse hypothesis
# never loads scipy.optimize, and the first projection does.
COLD_START = """
import json, sys
import numpy as np
import pbdtest, pbdtest.cli, pbdtest.oracles
from pbdtest import ExplicitDistribution, SampleStream, TestConfig, binomial_pmf, learner, test_pbd

cfg = TestConfig(eps=0.1, delta=0.1)
half_half = np.zeros(1001)
half_half[0] = half_half[1000] = 0.5
for law in (binomial_pmf(1000, 0.5), ExplicitDistribution(0, half_half)):
    test_pbd(SampleStream.from_distribution(law, seed=0), 1000, cfg)
pbdtest.cli.main(["test", "--spec", sys.argv[1], "--n", "1000", "--eps", "0.2", "--delta", "0.1",
                  "--seed", "7"])
before = "scipy.optimize" in sys.modules
learner.unimodal_projection(np.array([0.2, 0.5, 0.3]))
print(json.dumps([before, "scipy.optimize" in sys.modules]))
"""


def test_verdict_path_never_loads_scipy_optimize(tmp_path):
    spec = tmp_path / "binomial.json"
    spec.write_text('{"kind": "binomial", "n": 1000, "p": 0.5}')
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(spec)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[false, true]"
