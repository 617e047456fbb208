"""Per-layer tracing from outside the package.

``Tracer`` wraps each function in ``TRACED`` for as long as it is
installed.  A function is wrapped everywhere callers look it up: every
``pbdtest`` module global bound to it (``pbdtest.tester.learn_pbd`` and
``pbdtest.learner.binomial_pmf`` as well as the defining module), or the
class attribute for a method.  Each call is a span; a function's self
time is its spans' time minus the time of the traced spans nested in
them.  The draw methods also count the samples they return.
"""

from __future__ import annotations

import importlib
import sys
import time
from functools import wraps

# (layer module, function or Class.method) pairs the traced run reports.
TRACED = (
    ("distributions", "binomial_pmf"),
    ("distributions", "pbd_pmf"),
    ("distributions", "effective_support_interval"),
    ("distributions", "tv_distance"),
    ("distributions", "translated_poisson_pmf"),
    ("sampling", "SampleStream.draw_histogram"),
    ("sampling", "SampleStream.draw_poissonized"),
    ("learner", "learn_pbd"),
    ("learner", "estimate_mean_var"),
    ("learner", "unimodal_projection"),
    ("tester", "test_pbd"),
    ("tester", "run_budgeted_test"),
    ("tester", "heavy_case_test"),
    ("tester", "l2_statistic"),
    ("lowerbound", "detection_experiment"),
    ("lowerbound", "unimodal_distance_lb"),
    ("lowerbound", "construct_perturbed_binomial"),
    ("distspec", "realize"),
    ("cli", "main"),
)
SAMPLING = ("SampleStream.draw_histogram", "SampleStream.draw_poissonized")


class _Stat:
    __slots__ = ("calls", "self_s", "samples")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.samples = 0


class Tracer:
    def __init__(self):
        self.stats = {f"{m}.{q}": _Stat() for m, q in TRACED}
        self._child_s: list[float] = []  # traced-child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn, sampling: bool):
        stat = self.stats[key]
        child_s = self._child_s

        @wraps(fn)
        def traced(*args, **kwargs):
            child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                stat.calls += 1
                stat.self_s += span - child_s.pop()
                if child_s:
                    child_s[-1] += span
            if sampling:
                stat.samples += result.total
            return result

        return traced

    def _patch(self, owner, name: str, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pbdtest"]
        for module, qual in TRACED:
            key = f"{module}.{qual}"
            owner = importlib.import_module(f"pbdtest.{module}")
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self._wrap(key, getattr(cls, attr), qual in SAMPLING))
                continue
            fn = getattr(owner, qual)
            traced = self._wrap(key, fn, False)
            for m in modules:
                for name in [n for n, v in vars(m).items() if v is fn]:
                    self._patch(m, name, traced)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
        return False

    def metrics(self, ops: int) -> dict[str, dict]:
        """Calls, self time and (for the draw methods) samples of each function, per op."""
        out = {}
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = {"value": stat.calls / ops, "unit": "calls/op"}
            out[f"{key}.self_s"] = {"value": stat.self_s / ops, "unit": "s/op"}
            if key.endswith(SAMPLING):
                out[f"{key}.samples"] = {"value": stat.samples / ops, "unit": "samples/op"}
        return out
