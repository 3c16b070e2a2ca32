"""Smoke tests of the benchmark harness: tiny workloads, a few seconds in all."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import baseline, measure, workloads  # noqa: E402

WORKLOADS = ("chain-collide", "pose-chain", "joint-tables")


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "CHAINS", ((4, 3),))
    monkeypatch.setattr(workloads, "POSE_STEPS", 4)
    monkeypatch.setattr(workloads, "JOBS_PER_KIND", 2)


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert tuple(workloads.WORKLOADS) == WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(measure.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(measure.PER_LAYER)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_reports_every_metric(name, tiny, tmp_path):
    rec = measure.measure(name, 3, 0.0, False, tmp_path)
    assert rec["failures"] == []
    assert rec["correct"] and rec["attempted"] > 0 and rec["failed"] == 0
    assert [k for k, _ in measure.END_TO_END] == list(rec["metrics"])
    assert all(m["value"] > 0 for m in rec["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_exactly(name, tiny, tmp_path):
    counts = []
    for _ in range(2):
        rec = measure.measure(name, 5, 0.0, True, tmp_path)
        assert rec["correct"]
        assert [k for k, _ in measure.PER_LAYER] == list(rec["metrics"])
        counts.append({k: m["value"] for k, m in rec["metrics"].items()
                       if m["unit"] != "s" and m["unit"] != "ms" and m["unit"] != "1/s"})
    assert counts[0] == counts[1]
    if name == "joint-tables":
        assert counts[0]["linkage.oracle_roots.calls"] == workloads.JOBS_PER_KIND
        assert counts[0]["manipulator._frames.calls"] == 0
    else:
        assert counts[0]["geometry.pose_checks"] > 0
        assert counts[0]["manipulator.steps_checked"] > 0


def test_modular4_baseline_pose_checks():
    tracer = baseline.traced_modular4()
    assert tracer.counts["geometry.pose_checks"] == 17664


def test_sources_missing_exit_nonzero(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "joint-tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
