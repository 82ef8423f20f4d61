"""Smoke test of the end-to-end benchmark harness.

``benchmarks/conftest.py`` marks everything under ``benchmarks/`` slow,
so tier-1 skips this file; run it with ``pytest -m slow benchmarks/e2e``.
Every workload runs three iterations through ``run.py`` exactly as the
benchmark driver would start it, and the output contract, the
correctness gates and the process hygiene are asserted on what it prints.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
ROOT = RUN.parents[2]
WORKLOADS = (
    "sim_burst",
    "fault_heal",
    "durable_resume",
    "burst_pipe",
    "burst_shm",
    "burst_net",
    "pingpong_pipe",
)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str):
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # nothing the run started may outlive it
    assert "procs_left_running=0 shm_left=0 tmp_left=False" in proc.stdout
    assert not (ROOT / ".e2e_tmp").exists()
    return result, proc.stdout


def assert_metrics(result, declared):
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float))


def test_benchmark_json_names_the_harness_workloads():
    assert [w["name"] for w in spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_three_checked_iterations(workload):
    result, out = run("--workload", workload, "--seed", "1", "--iterations", "3", "--trace", "0")
    assert result["attempted"] == 3
    assert_metrics(result, spec()["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert "counts: {" in out and "fingerprint: {" in out


def test_traced_pass_emits_every_layer_metric():
    result, out = run("--workload", "fault_heal", "--seed", "1", "--iterations", "1", "--trace", "1")
    assert_metrics(result, spec()["per_layer"])
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["core.pipeline_coverage_share"] >= 0.9
    assert metrics["dsim.shm.pickled_msgs"] == 0 and metrics["dsim.net.pickled_msgs"] == 0
    spans = [
        json.loads(line)
        for line in (RUN.parent / "out" / "spans-fault_heal.jsonl").read_text().splitlines()
    ]
    assert {"name", "layer", "start_ns", "end_ns", "parent", "iteration", "self_ns"} <= set(spans[0])
