"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks the result line's shape, that every metric named in
BENCHMARK.json is reported with its unit, that the error rate is
computed, that two processes with one seed replay the same outputs, and
that the benchmark fails cleanly where the program is missing.
"""

import json
import re
import shutil
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


@cache
def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _meta(comments: list[str]) -> dict:
    return json.loads(next(c for c in comments if c.startswith("# meta "))[len("# meta "):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_reports_every_metric(workload, trace):
    comments, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float)
        # The tracing overhead is a difference of two rates and may be negative.
        if not name.startswith("trace."):
            assert m["value"] >= 0 if trace else m["value"] > 0, name
    if not trace:
        ungated = next(c for c in comments if c.startswith("# ungated "))
        assert set(json.loads(ungated[len("# ungated "):])) == {
            "op_p50_s", "op_p90_s", "ops_per_s", "reference_s"
        }
    rate = next(c for c in comments if c.startswith("# error_rate "))
    assert float(re.match(r"# error_rate (\S+)", rate).group(1)) == (
        result["failed"] / result["attempted"]
    )
    meta = _meta(comments)
    assert meta["seed"] == SEED and meta["workload"] == workload
    assert {"commit", "python", "numpy", "scipy", "nproc", "ops"} <= set(meta)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_replays_identically_across_processes(workload):
    # The replay digest covers each op's verdict and sample count.
    digests = {_meta(run(workload, trace)[0])["replay_digest"] for trace in (0, 1)}
    assert len(digests) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", "_work-*"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
