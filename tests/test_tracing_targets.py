"""The benchmark tracer wraps package functions by name; every name must resolve.

``perfbench/`` lies outside the test paths, so without these checks a
change that deletes or moves a traced function would pass the unit tests
and only break the benchmark.  ``perfbench/tracing.py`` is loaded by path
and read as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import pbdtest.tester as tester
from pbdtest.sampling import SampleStream

_TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


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
