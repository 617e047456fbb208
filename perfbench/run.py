"""Closed-loop benchmark of pbdtest.

One caller on one thread runs a workload's ops back to back, waiting for
each, for ``--seconds`` of wall time, and checks every op's output.  The
program is imported from ``src/`` of the checkout this file sits in.

    python3 perfbench/run.py --workload membership --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

``--trace 0`` reports the end-to-end metrics, with op latency in units
of a fixed reference computation timed after every op (reference.py);
``--trace 1`` runs the workload untraced for half the time and traced
for the other half, and reports per-layer metrics plus the tracing
overhead.  Comment lines (``#``) carry run metadata and error rates; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every workload in its own process
and prints one table.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
READY = "ready"
# Printed on a "# ungated" line, not in the result's metrics: on a host whose
# speed swings by up to 2x over seconds, times in seconds follow the share of
# a run spent slow, so their spread over runs is too wide to gate on.
UNGATED = ("op_p50_s", "op_p90_s", "ops_per_s", "reference_s")


def _import_program():
    """Import pbdtest from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import pbdtest

    if Path(pbdtest.__file__).resolve().parent != SRC / "pbdtest":
        raise ImportError(f"pbdtest imported from {pbdtest.__file__}, not from {SRC}")


@dataclass
class Phase:
    """The ops of one timed loop."""

    latencies: list = field(default_factory=list)
    results: list = field(default_factory=list)  # OpResult, or None on an exception
    wall_s: float = 0.0
    # Reference times before op 0 and after each op, when the loop times it.
    reference_s: list = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(r is None or not r.ok for r in self.results)

    def relative(self) -> list[float]:
        """Each op's latency over the mean of the reference times either side of it."""
        ref = self.reference_s
        return [lat / ((a + b) / 2) for lat, a, b in zip(self.latencies, ref, ref[1:])]


def _run_op(workload, i: int):
    try:
        return workload.run(i)
    except Exception:
        print(f"# op {i} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return None


def _time_reference() -> float:
    t0 = time.perf_counter()
    reference.run()
    return time.perf_counter() - t0


def measure(workload, seconds: float, with_reference: bool = False) -> Phase:
    """Closed loop from op 0 until ``seconds`` of wall time have passed.

    With ``with_reference`` the reference computation is timed once before
    op 0 and after every op; its time is not in the op latencies.
    """
    phase = Phase()
    if with_reference:
        for _ in range(2):
            reference.run()  # warm-up
    start = time.perf_counter()
    deadline = start + seconds
    if with_reference:
        phase.reference_s.append(_time_reference())
    i = 0
    while True:
        t0 = time.perf_counter()
        result = _run_op(workload, i)
        t1 = time.perf_counter()
        phase.latencies.append(t1 - t0)
        phase.results.append(result)
        if result is not None and not result.ok:
            print(f"# op {i} failed its check: {result.key}", file=sys.stderr)
        i += 1
        if with_reference:
            phase.reference_s.append(_time_reference())
        if t1 >= deadline:
            break
    phase.wall_s = time.perf_counter() - start
    return phase


def build(name: str, seed: int, tiny: bool, warm_up: bool = True):
    """Construct a workload and, unless told not to, run one untimed warm-up op."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, tiny)
    if warm_up:
        _run_op(workload, 0)
    return workload


def _self_command(args, workload: str, *extra: str) -> list[str]:
    """This benchmark's command line for ``workload`` with the caller's seed and size."""
    tiny = ["--tiny"] if args.tiny else []
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), *extra, *tiny]


def setup_times(args) -> list[float]:
    """Wall time from spawning a fresh process to its workload being ready."""
    cmd = _self_command(args, args.workload, "--setup-only")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line != READY:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return times


def replay(name: str, seed: int, tiny: bool, phase: Phase) -> tuple[int, int, str]:
    """Re-run the first round of ops on a freshly built workload.

    Returns (ops replayed, mismatches, digest of the replayed outputs).
    Op outputs depend only on (seed, op index), so any mismatch is a
    determinism failure; the digest lets two processes be compared.
    """
    workload = build(name, seed, tiny, warm_up=False)
    try:
        count = min(workload.rounds, phase.ops)
        again = [_run_op(workload, i) for i in range(count)]
    finally:
        workload.close()
    keys = [None if r is None else r.key for r in again]
    mismatches = sum(
        a is None or b is None or a != b.key for a, b in zip(keys, phase.results[:count])
    )
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()[:16]
    return count, mismatches, digest


def samples_per_op(phase: Phase, rounds: int) -> float:
    """Mean samples per op over whole rounds, so the input mix is exact."""
    done = [r for r in phase.results if r is not None]
    whole = len(done) - len(done) % rounds or len(done)
    return sum(r.samples for r in done[:whole]) / max(whole, 1)


def run_metadata(args, op_counts: dict) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "pbdtest").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "ops": op_counts,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def run_workload(args) -> dict:
    setup = [] if args.trace else setup_times(args)
    workload = build(args.workload, args.seed, args.tiny)
    try:
        if args.trace:
            untraced = measure(workload, args.seconds / 2)
            with tracing.Tracer() as tracer:
                traced = measure(workload, args.seconds / 2)
            phases = {"untraced": untraced, "traced": traced}
        else:
            phases = {"timed": measure(workload, args.seconds, with_reference=True)}
        rounds = workload.rounds
    finally:
        workload.close()
    first = next(iter(phases.values()))
    replayed, mismatches, digest = replay(args.workload, args.seed, args.tiny, first)

    attempted = sum(p.ops for p in phases.values()) + replayed
    failed = sum(p.failed for p in phases.values()) + mismatches
    op_counts = {k: p.ops for k, p in phases.items()} | {"replayed": replayed}
    meta = run_metadata(args, op_counts) | {"replay_digest": digest}
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(f"# error_rate {failed / attempted!r} ({failed} of {attempted} ops, "
          f"{mismatches} replay mismatches)")

    if args.trace:
        metrics = tracer.metrics(traced.ops)
        fast = untraced.ops / untraced.wall_s
        slow = traced.ops / traced.wall_s
        metrics["trace.ops_per_s_untraced"] = _metric(fast, "1/s")
        metrics["trace.ops_per_s_traced"] = _metric(slow, "1/s")
        metrics["trace.overhead_ops_per_s"] = _metric(fast - slow, "1/s")
        total = sum(s.self_s for s in tracer.stats.values()) or 1.0
        top = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)[:5]
        print("# self-time shares " + ", ".join(
            f"{k} {100 * s.self_s / total:.1f}%" for k, s in top if s.calls))
    else:
        phase = phases["timed"]
        lat = phase.latencies
        rel = phase.relative()
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "op_mean_ref": _metric(statistics.fmean(rel), "ref"),
            "op_p90_ref": _metric(_p90(rel), "ref"),
            "op_p50_s": _metric(statistics.median(lat), "s"),
            "op_p90_s": _metric(_p90(lat), "s"),
            "ops_per_s": _metric(phase.ops / sum(lat), "1/s"),
            "reference_s": _metric(statistics.median(phase.reference_s), "s"),
            "samples_per_op": _metric(samples_per_op(phase, rounds), "samples"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
        print("# ungated " + json.dumps({name: metrics.pop(name) for name in UNGATED}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process; one table and one combined result."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        cmd = _self_command(args, name, "--seconds", str(args.seconds), "--trace", str(args.trace))
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        ungated = {}
        for line in lines[:-1]:
            print(f"# [{name}] {line.lstrip('# ')}")
            if line.startswith("# ungated "):
                ungated = json.loads(line[len("# ungated "):])
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        error_rate = result["failed"] / result["attempted"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
        for metric, m in (result["metrics"] | ungated).items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "error_rate", error_rate, f"of {result['attempted']} ops"))
    for name, metric, value, unit in rows:
        print(f"# {name:<13} {metric:<48} {value:>14.6g} {unit}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    _import_program()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all")
    if args.setup_only:
        workload = build(args.workload, args.seed, args.tiny)
        print(READY, flush=True)
        workload.close()
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
