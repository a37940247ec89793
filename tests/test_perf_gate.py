"""The blocking serve perf gate must actually block.

``benchmarks/perf_gate.py`` is the script CI runs against the committed
baseline; these tests load it straight from its file (benchmarks/ is
not a package) and prove the two behaviours the gate exists for: an
unchanged report passes, and a synthetic >15% regression fails with a
non-zero exit code.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_module(name: str):
    path = REPO_ROOT / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gate():
    return _load_module("perf_gate")


@pytest.fixture
def report():
    return {
        "calibration_ops_per_s": 10_000_000.0,
        "entries_per_s": 12_000.0,
        "p99_latency_s": 0.0002,
        "shards": {"4": {"entries_per_s": 12_000.0}},
    }


class TestEvaluate:
    def test_identical_reports_pass(self, gate, report):
        ok, messages = gate.evaluate(report, report)
        assert ok
        assert all("REGRESSION" not in m for m in messages)

    def test_throughput_regression_beyond_threshold_fails(
        self, gate, report
    ):
        slower = dict(report, entries_per_s=report["entries_per_s"] * 0.7)
        ok, messages = gate.evaluate(slower, report, threshold=0.15)
        assert not ok
        assert any("throughput" in m and "REGRESSION" in m for m in messages)

    def test_latency_regression_beyond_threshold_fails(self, gate, report):
        slower = dict(report, p99_latency_s=report["p99_latency_s"] * 1.5)
        ok, _ = gate.evaluate(slower, report, threshold=0.15)
        assert not ok

    def test_regression_within_threshold_passes(self, gate, report):
        slightly = dict(
            report,
            entries_per_s=report["entries_per_s"] * 0.9,
            p99_latency_s=report["p99_latency_s"] * 1.1,
        )
        ok, _ = gate.evaluate(slightly, report, threshold=0.15)
        assert ok

    def test_calibration_normalization_absorbs_machine_speed(
        self, gate, report
    ):
        # The same engine on a machine half as fast: throughput halves
        # and latency doubles, but so does the calibration loop — the
        # normalized comparison must still pass.
        half_speed = {
            "calibration_ops_per_s": report["calibration_ops_per_s"] / 2,
            "entries_per_s": report["entries_per_s"] / 2,
            "p99_latency_s": report["p99_latency_s"] * 2,
        }
        ok, _ = gate.evaluate(half_speed, report, threshold=0.15)
        assert ok

    def test_nonpositive_calibration_is_rejected(self, gate, report):
        broken = dict(report, calibration_ops_per_s=0.0)
        with pytest.raises(ValueError):
            gate.evaluate(broken, report)

    def test_wal_tax_is_anchored_on_the_baseline(self, gate, report):
        # A fixed append cost looks relatively worse every time the
        # plain path speeds up; the gate must compare against the
        # baseline's tax, not an absolute 1.0.
        baseline = dict(report, wal={"relative_to_plain": 0.70})
        steady = dict(report, wal={"relative_to_plain": 0.68})
        ok, _ = gate.evaluate(steady, baseline, threshold=0.15)
        assert ok
        worse = dict(report, wal={"relative_to_plain": 0.50})
        ok, messages = gate.evaluate(worse, baseline, threshold=0.15)
        assert not ok
        assert any("wal" in m and "REGRESSION" in m for m in messages)

    def test_wal_tax_without_baseline_section_anchors_at_one(
        self, gate, report
    ):
        # First run after adding the wal section: the baseline has no
        # entry yet, so the anchor falls back to 1.0 (plain parity).
        current = dict(report, wal={"relative_to_plain": 0.90})
        ok, _ = gate.evaluate(current, report, threshold=0.15)
        assert ok
        tanked = dict(report, wal={"relative_to_plain": 0.60})
        ok, _ = gate.evaluate(tanked, report, threshold=0.15)
        assert not ok


class TestMainExitCodes:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload))
        return str(path)

    def test_pass_exits_zero(self, gate, report, tmp_path, capsys):
        current = self._write(tmp_path / "current.json", report)
        baseline = self._write(tmp_path / "baseline.json", report)
        status = gate.main(["--current", current, "--baseline", baseline])
        assert status == 0
        assert "PASS" in capsys.readouterr().out

    def test_synthetic_regression_exits_nonzero(
        self, gate, report, tmp_path, capsys
    ):
        # The CI acceptance scenario: a >15% throughput drop must fail
        # the job.
        regressed = dict(report, entries_per_s=report["entries_per_s"] * 0.8)
        current = self._write(tmp_path / "current.json", regressed)
        baseline = self._write(tmp_path / "baseline.json", report)
        status = gate.main(
            ["--current", current, "--baseline", baseline, "--threshold", "0.15"]
        )
        assert status == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "REGRESSION" in out

    def test_missing_baseline_passes_with_warning(
        self, gate, report, tmp_path, capsys
    ):
        current = self._write(tmp_path / "current.json", report)
        status = gate.main(
            ["--current", current, "--baseline", str(tmp_path / "nope.json")]
        )
        assert status == 0
        assert "no baseline" in capsys.readouterr().out

    def test_missing_current_fails(self, gate, tmp_path, capsys):
        baseline = self._write(tmp_path / "baseline.json", {"x": 1})
        status = gate.main(
            ["--current", str(tmp_path / "nope.json"), "--baseline", baseline]
        )
        assert status == 1


class TestCommittedBaseline:
    def test_the_committed_baseline_is_gateable(self, gate):
        """The file CI compares against must parse and normalize."""
        baseline_path = (
            REPO_ROOT / "benchmarks" / "baselines" / "BENCH_serve.json"
        )
        baseline = json.loads(baseline_path.read_text())
        normalized = gate.normalized(baseline)
        assert normalized["throughput"] > 0
        assert normalized["p99"] > 0
        ok, _ = gate.evaluate(baseline, baseline)
        assert ok
