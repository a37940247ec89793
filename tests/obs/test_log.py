"""Tests for structured JSON-lines event logging."""

import json

from repro.obs.log import (
    ARTIFACT_INVALID,
    AUTOMATON_CHECKPOINT,
    AUTOMATON_COMPILED,
    CASE_AUDITED,
    CASE_FAILED,
    CASE_QUARANTINED,
    CONTROL_CONFIG_LOADED,
    CONTROL_DISMISS,
    CONTROL_REAUDIT,
    CONTROL_REQUEUE,
    ENTRY_QUARANTINED,
    ENTRY_REPLAYED,
    EVENT_VOCABULARY,
    FRONTIER_GROWN,
    INFRINGEMENT_RAISED,
    LINT_RUN,
    MONITOR_SWEEP,
    NULL_EVENTS,
    PREFLIGHT_UNSOUND,
    SERVE_CLIENT,
    SERVE_DRAINED,
    SERVE_FLUSH,
    SERVE_RECOVERED,
    SERVE_STARTED,
    SERVE_TICK_FAILED,
    SERVE_WAL_COMMIT,
    SERVE_WAL_RETIRED,
    WEAKNEXT_COMPUTED,
    WORKER_INIT,
    WORKER_LOST,
    MemoryEventLog,
    json_lines_logger,
)


class TestVocabulary:
    def test_all_documented_events_present(self):
        assert EVENT_VOCABULARY == {
            ARTIFACT_INVALID,
            AUTOMATON_CHECKPOINT,
            AUTOMATON_COMPILED,
            CASE_AUDITED,
            CASE_FAILED,
            CASE_QUARANTINED,
            CONTROL_CONFIG_LOADED,
            CONTROL_DISMISS,
            CONTROL_REAUDIT,
            CONTROL_REQUEUE,
            ENTRY_QUARANTINED,
            ENTRY_REPLAYED,
            WEAKNEXT_COMPUTED,
            FRONTIER_GROWN,
            INFRINGEMENT_RAISED,
            LINT_RUN,
            MONITOR_SWEEP,
            PREFLIGHT_UNSOUND,
            SERVE_CLIENT,
            SERVE_DRAINED,
            SERVE_FLUSH,
                    SERVE_RECOVERED,
            SERVE_STARTED,
            SERVE_TICK_FAILED,
            SERVE_WAL_COMMIT,
            SERVE_WAL_RETIRED,
            WORKER_INIT,
            WORKER_LOST,
        }


class TestJsonLines:
    def test_one_json_object_per_line(self):
        log = MemoryEventLog()
        log.events.emit(CASE_AUDITED, case="HT-1", outcome="compliant")
        log.events.emit(
            INFRINGEMENT_RAISED, case="HT-11", kind="invalid-execution"
        )
        records = log.records()
        assert len(records) == 2
        assert records[0]["event"] == CASE_AUDITED
        assert records[0]["case"] == "HT-1"
        assert records[1]["kind"] == "invalid-execution"
        assert all("ts" in r for r in records)

    def test_non_json_field_values_are_stringified(self):
        log = MemoryEventLog()
        log.events.emit(CASE_AUDITED, value={1, 2})  # sets are not JSON
        assert isinstance(log.records()[0]["value"], str)

    def test_named_filter(self):
        log = MemoryEventLog()
        log.events.emit(CASE_AUDITED, case="a")
        log.events.emit(MONITOR_SWEEP, checked=0)
        assert len(log.named(CASE_AUDITED)) == 1

    def test_file_destination(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = json_lines_logger(path, name="repro.obs.test_file")
        events.emit(WORKER_INIT, pid=1234, purposes=["treatment"])
        lines = path.read_text().strip().splitlines()
        record = json.loads(lines[0])
        assert record["event"] == WORKER_INIT
        assert record["purposes"] == ["treatment"]

    def test_reconfiguring_replaces_handler(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        name = "repro.obs.test_replace"
        json_lines_logger(first, name=name)
        events = json_lines_logger(second, name=name)
        events.emit(CASE_AUDITED, case="x")
        assert first.read_text() == ""  # no duplicate delivery
        assert json.loads(second.read_text())["case"] == "x"


class TestNullEvents:
    def test_emit_is_noop(self):
        NULL_EVENTS.emit(CASE_AUDITED, case="HT-1")
        assert not NULL_EVENTS.enabled
