"""Tests for the ``repro`` command-line interface."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.audit import AuditTrail
from repro.bpmn import dumps
from repro.audit.xes import export_xes
from repro.cli import EXIT_BAD_INPUT, EXIT_INFRINGEMENT, EXIT_OK, main
from repro.scenarios import (
    clinical_trial_process,
    healthcare_treatment_process,
    paper_audit_trail,
)


@pytest.fixture
def ht_json(tmp_path):
    path = tmp_path / "treatment.json"
    path.write_text(dumps(healthcare_treatment_process()))
    return str(path)


@pytest.fixture
def ct_json(tmp_path):
    path = tmp_path / "trial.json"
    path.write_text(dumps(clinical_trial_process()))
    return str(path)


@pytest.fixture
def trail_xes(tmp_path):
    path = tmp_path / "trail.xes"
    path.write_text(export_xes(paper_audit_trail()))
    return str(path)


class TestValidate:
    def test_valid_process(self, ht_json, capsys):
        assert main(["validate", ht_json]) == EXIT_OK
        out = capsys.readouterr().out
        assert "well-founded" in out
        assert "GP" in out

    def test_invalid_process(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"process_id": "x", "elements": [{"id": "T", "type": "task",'
            ' "pool": "P"}], "flows": []}'
        )
        assert main(["validate", str(bad)]) == EXIT_BAD_INPUT
        assert "problem" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["validate", "/does/not/exist.json"]) == EXIT_BAD_INPUT


class TestEncode:
    def test_summary(self, ht_json, capsys):
        assert main(["encode", ht_json]) == EXIT_OK
        out = capsys.readouterr().out
        assert "purpose : treatment" in out
        assert "T01" in out

    def test_cows_output(self, ht_json, capsys):
        assert main(["encode", ht_json, "--format", "cows"]) == EXIT_OK
        assert "GP.T01" in capsys.readouterr().out

    def test_dot_output(self, ht_json, capsys):
        assert main(["encode", ht_json, "--format", "dot"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("digraph")


class TestCheck:
    def test_compliant_case(self, ht_json, trail_xes, capsys):
        code = main([
            "check", "--process", f"HT:{ht_json}",
            "--trail", trail_xes, "--case", "HT-1",
        ])
        assert code == EXIT_OK
        assert "compliant" in capsys.readouterr().out

    def test_infringing_case(self, ht_json, trail_xes, capsys):
        code = main([
            "check", "--process", f"HT:{ht_json}",
            "--trail", trail_xes, "--case", "HT-11",
        ])
        assert code == EXIT_INFRINGEMENT
        assert "INFRINGEMENT" in capsys.readouterr().out

    def test_verbose_prints_steps(self, ht_json, trail_xes, capsys):
        main([
            "check", "--process", f"HT:{ht_json}",
            "--trail", trail_xes, "--case", "HT-11", "--verbose",
        ])
        assert "step 0" in capsys.readouterr().out

    def test_unknown_case(self, ht_json, trail_xes, capsys):
        code = main([
            "check", "--process", f"HT:{ht_json}",
            "--trail", trail_xes, "--case", "HT-404",
        ])
        assert code == EXIT_BAD_INPUT

    def test_bad_process_spec(self, trail_xes):
        code = main([
            "check", "--process", "no-colon.json",
            "--trail", trail_xes, "--case", "HT-1",
        ])
        assert code == EXIT_BAD_INPUT


class TestAudit:
    def test_full_audit_finds_infringements(self, ht_json, ct_json, trail_xes, capsys):
        code = main([
            "audit",
            "--process", f"HT:{ht_json}",
            "--process", f"CT:{ct_json}",
            "--trail", trail_xes,
            "--role", "Cardiologist:Physician",
        ])
        assert code == EXIT_INFRINGEMENT
        out = capsys.readouterr().out
        assert "HT-11" in out
        assert "5 with infringements" in out

    def test_without_role_hierarchy_ct_case_fails_too(
        self, ht_json, ct_json, trail_xes, capsys
    ):
        # Without Cardiologist:Physician, Bob's trial entries cannot match
        # the Physician pool: the audit reports one more infringing case.
        main([
            "audit",
            "--process", f"HT:{ht_json}",
            "--process", f"CT:{ct_json}",
            "--trail", trail_xes,
        ])
        assert "6 with infringements" in capsys.readouterr().out

    def test_sqlite_trail_input(self, ht_json, ct_json, tmp_path, capsys):
        from repro.audit import AuditStore

        db = tmp_path / "log.db"
        with AuditStore(str(db)) as store:
            store.append_many(paper_audit_trail().for_case("HT-1"))
        code = main([
            "audit", "--process", f"HT:{ht_json}",
            "--process", f"CT:{ct_json}", "--trail", str(db),
        ])
        assert code == EXIT_OK
        assert "HT-1" in capsys.readouterr().out


class TestGenerate:
    def test_generate_to_stdout(self, ht_json, capsys):
        code = main([
            "generate", "--process", f"HT:{ht_json}", "--cases", "2",
        ])
        assert code == EXIT_OK
        assert "<log" in capsys.readouterr().out

    def test_generated_trail_is_compliant(self, ht_json, ct_json, tmp_path, capsys):
        out = tmp_path / "generated.xes"
        assert main([
            "generate", "--process", f"HT:{ht_json}", "--cases", "3",
            "--out", str(out), "--seed", "4",
        ]) == EXIT_OK
        code = main([
            "audit", "--process", f"HT:{ht_json}", "--trail", str(out),
        ])
        assert code == EXIT_OK


class TestFileEncodings:
    """Trail and BPMN files are parsed as bytes, so their XML declaration
    names the encoding; JSON, policy and written files are UTF-8."""

    COMMANDS = {"audit": [], "check": ["--case", "HT-1"], "stats": []}

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_declared_latin1_trail_imports(self, command, ht_json, tmp_path):
        trail = AuditTrail(
            dataclasses.replace(entry, user="José")
            for entry in paper_audit_trail().for_case("HT-1")
        )
        document = export_xes(trail).replace(
            "encoding='utf-8'", "encoding='ISO-8859-1'", 1
        )
        path = tmp_path / "latin1.xes"
        path.write_bytes(document.encode("latin-1"))
        code = main([
            command, "--process", f"HT:{ht_json}", "--trail", str(path),
            *self.COMMANDS[command],
        ])
        assert code == EXIT_OK

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_undecodable_byte_is_bad_input(
        self, command, ht_json, trail_xes, capsys
    ):
        path = Path(trail_xes)
        path.write_bytes(
            path.read_bytes().replace(b"<trace>", b"<trace>\xff", 1)
        )
        code = main([
            command, "--process", f"HT:{ht_json}", "--trail", trail_xes,
            *self.COMMANDS[command],
        ])
        assert code == EXIT_BAD_INPUT
        assert (
            "error: invalid XML: not well-formed (invalid token)"
            in capsys.readouterr().err
        )

    def test_an_ascii_locale_changes_nothing(self, tmp_path):
        from repro.bpmn import process_to_bpmn_xml
        from repro.bpmn.serialize import loads

        document = dumps(healthcare_treatment_process()).replace(
            '"GP"', '"Médico"'
        )
        process_json = tmp_path / "treatment.json"
        process_json.write_bytes(document.encode("utf-8"))
        process_bpmn = tmp_path / "treatment.bpmn"
        process_bpmn.write_bytes(
            process_to_bpmn_xml(loads(document)).encode("utf-8")
        )
        trail = tmp_path / "trail.xes"
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
            LC_ALL="C",
            PYTHONCOERCECLOCALE="0",
            PYTHONUTF8="0",
        )

        def repro(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", *args],
                capture_output=True, text=True, env=env, timeout=120,
            )

        generated = repro(
            "generate", "--process", f"HT:{process_json}", "--cases", "3",
            "--out", str(trail),
        )
        assert generated.returncode == EXIT_OK, generated.stderr
        assert "Médico".encode("utf-8") in trail.read_bytes()
        for process in (process_json, process_bpmn):
            audited = repro(
                "audit", "--process", f"HT:{process}", "--trail", str(trail)
            )
            assert audited.returncode == EXIT_OK, audited.stderr


class TestBpmnXmlInput:
    def test_validate_bpmn_file(self, tmp_path, capsys):
        from repro.bpmn import process_to_bpmn_xml

        path = tmp_path / "treatment.bpmn"
        path.write_text(process_to_bpmn_xml(healthcare_treatment_process()))
        assert main(["validate", str(path)]) == EXIT_OK
        assert "well-founded" in capsys.readouterr().out

    def test_check_with_bpmn_process(self, tmp_path, trail_xes, capsys):
        from repro.bpmn import process_to_bpmn_xml

        path = tmp_path / "treatment.bpmn"
        path.write_text(process_to_bpmn_xml(healthcare_treatment_process()))
        code = main([
            "check", "--process", f"HT:{path}",
            "--trail", trail_xes, "--case", "HT-11",
        ])
        assert code == EXIT_INFRINGEMENT
        out = capsys.readouterr().out
        assert "diagnosis" in out


class TestTelemetryFlags:
    def _split_report_and_json(self, out: str):
        """The report precedes the snapshot; the JSON starts at the first
        line that is exactly '{'."""
        lines = out.splitlines()
        start = lines.index("{")
        return "\n".join(lines[:start]), "\n".join(lines[start:])

    def test_audit_metrics_stdout_keeps_infringement_exit_code(
        self, ht_json, ct_json, trail_xes, capsys
    ):
        import json

        code = main([
            "audit",
            "--process", f"HT:{ht_json}",
            "--process", f"CT:{ct_json}",
            "--trail", trail_xes,
            "--role", "Cardiologist:Physician",
            "--metrics", "-",
        ])
        assert code == EXIT_INFRINGEMENT
        out = capsys.readouterr().out
        report, snapshot_text = self._split_report_and_json(out)
        # the report is intact, not interleaved with the snapshot
        assert "5 with infringements" in report
        assert "HT-11" in report
        snapshot = json.loads(snapshot_text)
        assert snapshot["cases_audited_total"]["values"][0]["value"] == 8
        assert any(
            entry["labels"].get("kind") == "invalid-execution"
            for entry in snapshot["infringements_total"]["values"]
        )
        outcomes = {
            entry["labels"]["outcome"]
            for entry in snapshot["replay_entries_total"]["values"]
        }
        assert "rejected" in outcomes and "task" in outcomes
        assert snapshot["weaknext_cache_hits_total"]["values"][0]["value"] > 0
        assert snapshot["weaknext_cache_misses_total"]["values"][0]["value"] > 0
        assert snapshot["replay_seconds"]["series"][0]["count"] > 0
        assert snapshot["replay_seconds"]["series"][0]["sum"] > 0

    def test_audit_metrics_file_and_compliant_exit_code(
        self, ht_json, tmp_path, capsys
    ):
        import json

        out_xes = tmp_path / "ok.xes"
        assert main([
            "generate", "--process", f"HT:{ht_json}", "--cases", "2",
            "--out", str(out_xes), "--seed", "1",
        ]) == EXIT_OK
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "audit", "--process", f"HT:{ht_json}", "--trail", str(out_xes),
            "--metrics", str(metrics_path),
        ])
        assert code == EXIT_OK
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["cases_audited_total"]["values"][0]["value"] == 2
        # the report stream was not polluted by the file-bound snapshot
        assert "{" not in capsys.readouterr().out.splitlines()

    def test_audit_metrics_prometheus_format(
        self, ht_json, ct_json, trail_xes, tmp_path
    ):
        metrics_path = tmp_path / "metrics.prom"
        code = main([
            "audit",
            "--process", f"HT:{ht_json}",
            "--process", f"CT:{ct_json}",
            "--trail", trail_xes,
            "--metrics", str(metrics_path),
            "--metrics-format", "prometheus",
        ])
        assert code == EXIT_INFRINGEMENT
        text = metrics_path.read_text()
        assert "# TYPE cases_audited_total counter" in text
        assert 'infringements_total{kind="invalid-execution"}' in text
        assert "replay_seconds_bucket" in text

    def test_check_metrics_keeps_exit_codes(self, ht_json, trail_xes, tmp_path):
        metrics_path = tmp_path / "m.json"
        assert main([
            "check", "--process", f"HT:{ht_json}",
            "--trail", trail_xes, "--case", "HT-1",
            "--metrics", str(metrics_path),
        ]) == EXIT_OK
        assert main([
            "check", "--process", f"HT:{ht_json}",
            "--trail", trail_xes, "--case", "HT-11",
            "--metrics", str(metrics_path),
        ]) == EXIT_INFRINGEMENT

    def test_events_jsonl_written(self, ht_json, trail_xes, tmp_path):
        import json

        events_path = tmp_path / "events.jsonl"
        main([
            "check", "--process", f"HT:{ht_json}",
            "--trail", trail_xes, "--case", "HT-1",
            "--events", str(events_path),
        ])
        events = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        assert any(e["event"] == "entry.replayed" for e in events)
        assert any(e["event"] == "weaknext.computed" for e in events)

    def test_trace_chrome_written(self, ht_json, ct_json, trail_xes, tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        main([
            "audit",
            "--process", f"HT:{ht_json}",
            "--process", f"CT:{ct_json}",
            "--trail", trail_xes,
            "--trace", str(trace_path), "--trace-format", "chrome",
        ])
        events = json.loads(trace_path.read_text())
        assert any(e["name"] == "audit" for e in events)
        assert all(e["ph"] == "X" for e in events)


class TestStats:
    def test_stats_prints_report_and_telemetry_summary(
        self, ht_json, ct_json, trail_xes, capsys
    ):
        code = main([
            "stats",
            "--process", f"HT:{ht_json}",
            "--process", f"CT:{ct_json}",
            "--trail", trail_xes,
            "--role", "Cardiologist:Physician",
        ])
        assert code == EXIT_INFRINGEMENT  # mirrors audit's exit code
        out = capsys.readouterr().out
        assert "5 with infringements" in out
        assert "telemetry summary:" in out
        assert "cases_audited_total" in out
        assert "weaknext_cache_hits_total" in out
        assert "replay_seconds" in out

    def test_stats_compliant_trail_exits_ok(self, ht_json, tmp_path, capsys):
        out_xes = tmp_path / "ok.xes"
        main([
            "generate", "--process", f"HT:{ht_json}", "--cases", "2",
            "--out", str(out_xes), "--seed", "7",
        ])
        assert main([
            "stats", "--process", f"HT:{ht_json}", "--trail", str(out_xes),
        ]) == EXIT_OK


class TestGenerateTelemetry:
    def test_generate_metrics_counts_cases_and_entries(
        self, ht_json, tmp_path, capsys
    ):
        import json

        metrics_path = tmp_path / "gen.json"
        out_xes = tmp_path / "gen.xes"
        assert main([
            "generate", "--process", f"HT:{ht_json}", "--cases", "3",
            "--out", str(out_xes), "--metrics", str(metrics_path),
        ]) == EXIT_OK
        snapshot = json.loads(metrics_path.read_text())
        cases = snapshot["cases_generated_total"]["values"]
        assert cases == [{"labels": {"purpose": "treatment"}, "value": 3.0}]
        entries = snapshot["entries_generated_total"]["values"][0]["value"]
        assert entries >= 6  # min_steps=2 per case


class TestDemo:
    def test_demo_runs_paper_scenario(self, capsys):
        code = main(["demo"])
        assert code == EXIT_INFRINGEMENT  # the paper's trail has 5
        out = capsys.readouterr().out
        assert "HT-1" in out and "CT-1" in out


class TestAuditResilienceFlags:
    def sick_json(self, tmp_path):
        from repro.bpmn import ProcessBuilder
        from repro.bpmn.serialize import dumps as dump_process

        builder = ProcessBuilder("sick", purpose="sick")
        pool = builder.pool("Staff")
        pool.start_event("S").task("T")
        pool.exclusive_gateway("G1").exclusive_gateway("G2")
        pool.end_event("E")
        builder.chain("S", "T", "G1", "G2")
        builder.flow("G2", "G1")
        builder.flow("G2", "E")
        path = tmp_path / "sick.json"
        path.write_text(dump_process(builder.build(validate=False)))
        return str(path)

    def test_non_well_founded_case_reported_not_fatal(
        self, ht_json, tmp_path, capsys
    ):
        from datetime import datetime
        from repro.audit import AuditTrail, LogEntry, Status

        sick = self.sick_json(tmp_path)
        trail = AuditTrail(
            list(paper_audit_trail().for_case("HT-1"))
            + [LogEntry(
                user="Sam", role="Staff", action="work", obj=None,
                task="T", case="NW-1",
                timestamp=datetime(2010, 5, 1), status=Status.SUCCESS,
            )]
        )
        trail_path = tmp_path / "mixed.xes"
        trail_path.write_text(export_xes(trail))
        code = main([
            "audit", "--process", f"HT:{ht_json}",
            "--process", f"NW:{sick}", "--trail", str(trail_path),
            "--role", "Cardiologist:Physician",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_INFRINGEMENT
        assert "UNDECIDABLE" in out
        assert "not auditable" in out

    def test_case_timeout_flag_parses_and_audits(
        self, ht_json, ct_json, trail_xes, capsys
    ):
        # a generous budget: behavior identical to the unbudgeted audit
        code = main([
            "audit", "--process", f"HT:{ht_json}",
            "--process", f"CT:{ct_json}", "--trail", trail_xes,
            "--role", "Cardiologist:Physician",
            "--case-timeout", "60", "--on-error", "skip",
        ])
        assert code == EXIT_INFRINGEMENT
        assert "HT-11" in capsys.readouterr().out

    def test_parallel_audit_via_workers_flag(
        self, ht_json, ct_json, trail_xes, capsys
    ):
        args = [
            "audit", "--process", f"HT:{ht_json}",
            "--process", f"CT:{ct_json}", "--trail", trail_xes,
            "--role", "Cardiologist:Physician",
        ]
        serial_code = main(args)
        serial_out = capsys.readouterr().out
        code = main([*args, "--workers", "2", "--retries", "1"])
        out = capsys.readouterr().out
        # one report format, whichever mode
        assert (code, out) == (serial_code, serial_out)
        assert code == EXIT_INFRINGEMENT
        assert "invalid-execution" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "2", "--retries", "-1"],
            ["--retries", "-1"],
            ["--case-timeout", "0"],
            ["--case-timeout", "-1"],
            ["--workers", "0"],
            ["--workers", "-3"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_out_of_range_numbers_are_bad_input(
        self, ht_json, trail_xes, capsys, flags
    ):
        code = main([
            "audit", "--process", f"HT:{ht_json}", "--trail", trail_xes,
            *flags,
        ])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INPUT
        assert flags[-2] in captured.err
        assert "audited" not in captured.out

    def test_quarantine_mode_surfaces_dead_letters(
        self, ht_json, tmp_path, capsys
    ):
        from repro.audit import AuditStore
        from repro.testing import corrupt_store_row

        db = tmp_path / "log.db"
        with AuditStore(str(db)) as store:
            store.append_many(paper_audit_trail().for_case("HT-1"))
            corrupt_store_row(store, 3)
        code = main([
            "audit", "--process", f"HT:{ht_json}", "--trail", str(db),
            "--role", "Cardiologist:Physician",
            "--on-error", "quarantine",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_INFRINGEMENT  # quarantined records taint the run
        assert "quarantined" in out

    def test_corrupt_store_without_quarantine_still_fails(
        self, ht_json, tmp_path, capsys
    ):
        from repro.audit import AuditStore
        from repro.testing import corrupt_store_row

        db = tmp_path / "log.db"
        with AuditStore(str(db)) as store:
            store.append_many(paper_audit_trail().for_case("HT-1"))
            corrupt_store_row(store, 3)
        code = main([
            "audit", "--process", f"HT:{ht_json}", "--trail", str(db),
        ])
        assert code == EXIT_BAD_INPUT
        assert "error" in capsys.readouterr().err


@pytest.fixture
def defective_json(tmp_path):
    from repro.bpmn import ProcessBuilder

    builder = ProcessBuilder("defective-review", purpose="review")
    reviewer = builder.pool("Reviewer")
    ghost = builder.pool("Ghost")
    reviewer.start_event("S")
    reviewer.task("T0")
    reviewer.exclusive_gateway("G")
    reviewer.task("B1")
    ghost.task("B2")
    reviewer.parallel_gateway("J")
    reviewer.task("TZ")
    reviewer.end_event("E")
    builder.chain("S", "T0", "G")
    builder.flow("G", "B1").flow("G", "B2")
    builder.flow("B1", "J").flow("B2", "J")
    builder.chain("J", "TZ", "E")
    path = tmp_path / "defective.json"
    path.write_text(dumps(builder.build(validate=False)))
    return str(path)


class TestServeNumbers:
    """Out-of-range ``repro serve`` numbers are bad input, refused before
    a daemon starts (a stand-in router fails the test if one would)."""

    @pytest.fixture(autouse=True)
    def no_daemon(self, monkeypatch):
        import repro.serve

        def refuse(*args, **kwargs):
            raise AssertionError("a daemon was started")

        monkeypatch.setattr(repro.serve, "ShardRouter", refuse)

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--flush-interval", "0"], "flush_interval_s"),
            (["--flush-interval", "-1"], "flush_interval_s"),
            (["--flush-interval", "nan"], "flush_interval_s"),
            (["--flush-batch", "0"], "flush_max_batch"),
            (["--case-timeout", "-1"], "case_timeout_s"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else value,
    )
    def test_out_of_range_numbers_are_bad_input(self, capsys, flags, field):
        code = main(["serve", "--scenario", "paper", "--port", "0", *flags])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INPUT
        assert captured.err.startswith(f"error: {field} must be ")
        assert captured.out == ""


class TestServeCrashSafety:
    @pytest.mark.parametrize("flag", ["--recover", "--supervise"])
    def test_crash_safety_is_the_wal_dir_alone(self, capsys, tmp_path, flag):
        # --wal-dir resumes on its own; the old switches are
        # unrecognized arguments.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--scenario", "paper", "--wal-dir",
                  str(tmp_path), flag])
        assert exit_info.value.code == EXIT_BAD_INPUT
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "store", [[], ["--store", ":memory:"]], ids=["no-store", "memory"]
    )
    def test_a_wal_dir_needs_a_store_file(self, capsys, tmp_path, store):
        # The log only holds what the store has not committed yet, so a
        # daemon with one and nothing durable behind it never listens.
        code = main(["serve", "--scenario", "paper", "--port", "0",
                     "--wal-dir", str(tmp_path / "wal"), *store])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INPUT
        assert "wal_dir needs a durable store_path" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "wal").exists()

    def test_shards_is_accepted_and_hidden(self, tmp_path, capsys):
        import json
        import signal

        # Every case is replayed on one engine; the flag stays only so
        # scripts that pass it (perfbench/daemonctl.py) keep starting.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--help"])
        assert exit_info.value.code == EXIT_OK
        assert "--shards" not in capsys.readouterr().out
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        )
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--scenario",
             "paper", "--shards", "2", "--port", "0", "--http-port", "-1",
             "--store", str(tmp_path / "audit.db")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            line = daemon.stdout.readline()
            assert line, daemon.stderr.read()
            assert json.loads(line)["listening"]["port"] > 0
            daemon.send_signal(signal.SIGTERM)
            stdout, stderr = daemon.communicate(timeout=60)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10)
        assert daemon.returncode == EXIT_OK, stderr
        assert json.loads(stdout.splitlines()[-1])["drained"]["store_intact"]

    @pytest.mark.parametrize(
        "flag", ["--queue-capacity", "--hang-timeout", "--max-shard-restarts"]
    )
    def test_shard_thread_flags_are_gone(self, capsys, flag):
        # One engine on the event loop: no queue to bound, no thread to
        # police or restart.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--scenario", "paper", flag, "1"])
        assert exit_info.value.code == EXIT_BAD_INPUT
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestLint:
    def test_clean_process_exits_ok(self, ht_json, capsys):
        assert main(["lint", ht_json]) == EXIT_OK
        assert "clean" in capsys.readouterr().out

    def test_defective_process_exits_one(self, defective_json, capsys):
        assert main(["lint", defective_json]) == EXIT_INFRINGEMENT
        out = capsys.readouterr().out
        assert "PC201" in out
        assert "PC203" in out

    def test_json_format(self, defective_json, capsys):
        import json

        assert main(["lint", defective_json, "--format", "json"]) == EXIT_INFRINGEMENT
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] > 0
        assert {d["code"] for d in payload["diagnostics"]} >= {"PC201", "PC203"}

    def test_sarif_format(self, defective_json, capsys):
        import json

        assert main(["lint", defective_json, "--format", "sarif"]) == EXIT_INFRINGEMENT
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        rule_ids = {
            r["id"] for r in document["runs"][0]["tool"]["driver"]["rules"]
        }
        assert {"PC201", "PC203"} <= rule_ids

    def test_policy_crosschecks(self, defective_json, tmp_path, capsys):
        policy = tmp_path / "review.policy"
        policy.write_text(
            "(Reviewer, read, [.]Dossier, review)\n"
            "(Reviewer, write, [.]Dossier/Notes, review)\n"
        )
        code = main(["lint", defective_json, "--policy", str(policy)])
        assert code == EXIT_INFRINGEMENT
        assert "PC301" in capsys.readouterr().out

    def test_strict_promotes_warnings(self, ct_json, capsys):
        # clinical-trial carries a PC403 fragility warning but no errors
        assert main(["lint", ct_json]) == EXIT_OK
        assert main(["lint", ct_json, "--strict"]) == EXIT_INFRINGEMENT
        assert "PC403" in capsys.readouterr().out

    def test_multiple_processes_one_report(self, ht_json, defective_json, capsys):
        assert main(["lint", ht_json, defective_json]) == EXIT_INFRINGEMENT
        out = capsys.readouterr().out
        assert "defective-review" in out
        assert "2 process(es)" in out

    def test_out_file_written_with_summary(self, defective_json, tmp_path, capsys):
        out_path = tmp_path / "report.sarif"
        code = main([
            "lint", defective_json, "--format", "sarif", "--out", str(out_path),
        ])
        assert code == EXIT_INFRINGEMENT
        assert out_path.exists()
        assert "error(s)" in capsys.readouterr().out

    def test_bad_budget_rejected(self, ht_json, capsys):
        assert main(["lint", ht_json, "--budget", "0"]) == EXIT_BAD_INPUT
        assert "positive" in capsys.readouterr().err

    def test_missing_policy_file(self, ht_json, capsys):
        assert main(["lint", ht_json, "--policy", "/no/such.policy"]) == EXIT_BAD_INPUT

    def test_exhausted_budget_is_inconclusive_not_failing(self, ht_json, capsys):
        assert main(["lint", ht_json, "--budget", "3"]) == EXIT_OK
        assert "PC205" in capsys.readouterr().out


class TestValidateSilentCycles:
    def test_each_cycle_is_printed(self, tmp_path, capsys):
        from repro.bpmn import ProcessBuilder

        builder = ProcessBuilder("spin")
        pool = builder.pool("P")
        pool.start_event("S").task("T")
        pool.exclusive_gateway("G1").exclusive_gateway("G2")
        pool.end_event("E")
        builder.chain("S", "T", "G1", "G2")
        builder.flow("G2", "G1")
        builder.flow("G2", "E")
        path = tmp_path / "spin.json"
        path.write_text(dumps(builder.build(validate=False)))

        assert main(["validate", str(path)]) == EXIT_BAD_INPUT
        out = capsys.readouterr().out
        assert "silent cycle: " in out
        assert "NOT WELL-FOUNDED" in out
        assert "Algorithm 1 inapplicable" in out


class TestCompiledArtifacts:
    """``repro compile`` and a cold ``repro audit`` leave one RPTB table
    per purpose, and a warm audit then replays from it alone."""

    ROLES = [
        "--role", "GP:Physician",
        "--role", "Cardiologist:Physician",
        "--role", "Radiologist:Physician",
    ]

    def _audit(self, ht_json, ct_json, trail_xes, directory, metrics):
        return main([
            "audit",
            "--process", f"HT:{ht_json}",
            "--process", f"CT:{ct_json}",
            "--trail", trail_xes,
            *self.ROLES,
            "--automaton-dir", str(directory),
            "--metrics", str(metrics),
        ])

    def test_compile_writes_one_table_per_purpose(
        self, ht_json, ct_json, tmp_path, capsys
    ):
        automata = tmp_path / "automata"
        for _ in range(2):  # the rerun finds both up to date
            # --table is accepted and ignored (every artifact is a table).
            assert main([
                "compile", "--process", f"HT:{ht_json}",
                "--process", f"CT:{ct_json}", *self.ROLES,
                "--automaton-dir", str(automata), "--table",
            ]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("compiled ->") == 2
        assert out.count("up to date") == 2
        names = sorted(path.name for path in automata.iterdir())
        assert len(names) == 2
        assert all(name.endswith(".table.bin") for name in names)

    def test_warm_audit_after_a_cold_one_never_misses(
        self, ht_json, ct_json, trail_xes, tmp_path, capsys
    ):
        import json

        automata = tmp_path / "automata"
        cold_metrics = tmp_path / "cold.json"
        warm_metrics = tmp_path / "warm.json"
        assert self._audit(
            ht_json, ct_json, trail_xes, automata, cold_metrics
        ) == EXIT_INFRINGEMENT
        names = sorted(path.name for path in automata.iterdir())
        assert len(names) == 2
        assert all(name.endswith(".table.bin") for name in names)
        cold_out = capsys.readouterr().out
        assert self._audit(
            ht_json, ct_json, trail_xes, automata, warm_metrics
        ) == EXIT_INFRINGEMENT
        assert capsys.readouterr().out == cold_out

        def total(path, name):
            values = json.loads(path.read_text()).get(name, {}).get("values", [])
            return sum(value["value"] for value in values)

        # Every step the cold audit derived is a warm table hit.
        assert total(cold_metrics, "automaton_misses_total") > 0
        assert total(warm_metrics, "automaton_misses_total") == 0
        assert total(warm_metrics, "automaton_table_hits_total") == (
            total(cold_metrics, "automaton_table_hits_total")
            + total(cold_metrics, "automaton_misses_total")
        )

    @pytest.mark.parametrize("mode", ["interpreted", "cold", "warm"])
    @pytest.mark.parametrize("day", ["paper", "hospital-day"])
    def test_workers_print_the_serial_report(
        self, ht_json, ct_json, tmp_path, capsys, day, mode
    ):
        """``--workers 2`` prints exactly what the serial audit prints:
        interpreted, and compiled with and without artifacts already in
        the directory."""
        from repro.scenarios import hospital_day

        trail = (
            paper_audit_trail()
            if day == "paper"
            else hospital_day(n_cases=30, violation_rate=0.4, seed=4).trail
        )
        trail_xes = tmp_path / "trail.xes"
        trail_xes.write_text(export_xes(trail))
        audit = [
            "audit", "--process", f"HT:{ht_json}",
            "--process", f"CT:{ct_json}", "--trail", str(trail_xes),
            *self.ROLES,
        ]
        serial_code = main(audit)
        serial_out = capsys.readouterr().out
        assert serial_code == EXIT_INFRINGEMENT
        automata = tmp_path / "automata"
        if mode == "warm":
            assert main([
                "compile", "--process", f"HT:{ht_json}",
                "--process", f"CT:{ct_json}", *self.ROLES,
                "--automaton-dir", str(automata),
            ]) == EXIT_OK
            capsys.readouterr()
        compiled = [] if mode == "interpreted" else [
            "--automaton-dir", str(automata)
        ]
        code = main([*audit, *compiled, "--workers", "2"])
        assert (code, capsys.readouterr().out) == (serial_code, serial_out)

    @pytest.mark.parametrize("rot", ["pool", "version-2"])
    def test_rotten_artifact_never_changes_the_report(
        self, ht_json, ct_json, trail_xes, tmp_path, capsys, rot
    ):
        """A flipped pool event string reads as tamper, a v2 file as
        version; either way the audit recompiles and reports the same."""
        import json

        from repro.testing import corrupt_artifact
        from tests.compile.test_artifact import as_version_2

        automata = tmp_path / "automata"
        assert self._audit(
            ht_json, ct_json, trail_xes, automata, tmp_path / "cold.json"
        ) == EXIT_INFRINGEMENT
        cold_out = capsys.readouterr().out
        for path in automata.iterdir():
            if rot == "pool":
                corrupt_artifact(path, "pool")
            else:
                path.write_bytes(as_version_2(path.read_bytes()))
        for run in ("rotten", "healed"):
            metrics = tmp_path / f"{run}.json"
            assert self._audit(
                ht_json, ct_json, trail_xes, automata, metrics
            ) == EXIT_INFRINGEMENT
            assert capsys.readouterr().out == cold_out
            invalid = json.loads(metrics.read_text()).get(
                "automaton_artifacts_invalid_total", {}
            ).get("values", [])
            reasons = {
                value["labels"]["reason"]: value["value"] for value in invalid
            }
            if run == "rotten":
                reason = "tamper" if rot == "pool" else "version"
                assert reasons == {reason: 2}
            else:
                assert not any(reasons.values())
