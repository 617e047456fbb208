"""The benchmark's calls into the package must keep working.

``perfbench/`` lies outside the test paths, so without these checks a
change that deletes or moves a traced function, or drops a keyword or a
``TestConfig`` field a workload passes, would pass the unit tests and only
break the benchmark.  ``perfbench/tracing.py`` and ``perfbench/workloads.py``
are loaded by path and read as they are.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import pbdtest.tester as tester
from pbdtest.sampling import SampleStream

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while defining
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("module, qual", tracing.TRACED, ids=lambda v: v)
def test_traced_name_resolves(module, qual):
    owner = importlib.import_module(f"pbdtest.{module}")
    for part in qual.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_draw_methods_are_defined_on_sample_stream():
    # The detection workload's draw counter reads them from the class dict.
    for name in ("draw_histogram", "draw_poissonized"):
        assert name in SampleStream.__dict__


def test_tracer_installs_and_restores():
    originals = (tester.test_pbd, SampleStream.__dict__["draw_poissonized"])
    with tracing.Tracer():
        assert tester.test_pbd is not originals[0]
    assert (tester.test_pbd, SampleStream.__dict__["draw_poissonized"]) == originals


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_first_op_passes_its_check(name):
    workload = workloads.WORKLOADS[name](seed=0, tiny=True)
    try:
        assert workload.run(0).ok
    finally:
        workload.close()
