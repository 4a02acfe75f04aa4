"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def smoke_runs():
    """(result line, record) per (workload, trace), run once per module."""
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            record = (ROOT / ".perfbench_out"
                      / f"{workload}-seed1-trace{trace}.json")
            runs[workload, trace] = (
                json.loads(proc.stdout.strip().splitlines()[-1]),
                json.loads(record.read_text()))
    return runs


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(smoke_runs, workload, trace):
    result, _ = smoke_runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_wall_time(smoke_runs, workload):
    result, record = smoke_runs[workload, 1]
    metrics = result["metrics"]
    layers = [m["name"] for m in SPEC["per_layer"]
              if m["name"].count(".") == 1 and m["name"].endswith(".self_s")]
    self_sum = sum(metrics[name]["value"] for name in layers)
    walls = record["traced_pass_walls_s"]
    assert 0 < self_sum <= sum(walls) / len(walls)


def test_every_layer_metric_is_measured_somewhere(smoke_runs):
    for m in SPEC["per_layer"]:
        assert any(smoke_runs[w, 1][0]["metrics"][m["name"]]["value"]
                   for w in WORKLOADS), m["name"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
