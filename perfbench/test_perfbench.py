"""The benchmark's own tests, on its fast smoke mode.

Run from the checkout root: ``python -m pytest perfbench -q``.  Each
test drives ``perfbench/run.py`` as ``BENCHMARK.json``'s command and reads the last
stdout line; smoke inputs keep the whole file to about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: What ``run.py`` runs by default; BENCHMARK.json gates a subset.
WORKLOADS = ("audit_day", "stream_day", "stream_watched")


def run(*args: str) -> tuple[int, dict, str]:
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seed", "3", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = process.stdout.strip().splitlines()
    return process.returncode, json.loads(lines[-1]) if lines else {}, process.stdout


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, section):
    code, result, output = run("--trace", str(trace))
    assert code == 0, output
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {workload["name"] for workload in SPEC["workloads"]} <= set(WORKLOADS)
    expected = {
        f"{workload}.{metric['name']}": metric["unit"]
        for workload in WORKLOADS
        for metric in SPEC[section]
    }
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if section == "end_to_end":
        assert all(value > 0 for value in metrics.values())
        return
    # The layers are attributed where the work happens.
    assert metrics["audit_day.audit.model.project_calls"] > 0
    assert metrics["audit_day.serve.core.submit_s"] == 0
    for stream in ("stream_day", "stream_watched"):
        assert metrics[f"{stream}.audit.model.project_s"] == 0
        assert metrics[f"{stream}.core.monitor.observe_s"] > 0
        assert metrics[f"{stream}.compile.table_hit_ratio"] >= 0.8


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_ground_truth_fails_the_run(workload):
    code, result, output = run("--workload", workload, "--flip-truth")
    assert code == 1, output
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "PROBLEM" in output


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit_day",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
