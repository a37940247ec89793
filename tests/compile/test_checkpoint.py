"""Tests for incremental, revision-gated automaton checkpointing."""

from datetime import datetime, timedelta

from repro.audit import LogEntry, Status
from repro.bpmn import encode
from repro.compile import (
    CheckpointWriter,
    PurposeAutomaton,
    fingerprint_encoded,
    load_table,
)
from repro.core import ComplianceChecker
from repro.obs import MetricsRegistry, Telemetry
from repro.obs.log import AUTOMATON_CHECKPOINT, MemoryEventLog
from repro.scenarios import sequential_process


def entry(task, minute=0, case="C-1"):
    return LogEntry(
        user="Sam",
        role="Staff",
        action="work",
        obj=None,
        task=task,
        case=case,
        timestamp=datetime(2010, 1, 1, 9, 0) + timedelta(minutes=minute),
        status=Status.SUCCESS,
    )


def compiled_checker(n_tasks=4):
    checker = ComplianceChecker(encode(sequential_process(n_tasks)))
    automaton = PurposeAutomaton(
        fingerprint=fingerprint_encoded(checker.encoded),
        purpose=checker.purpose,
        roles=checker.encoded.roles,
    )
    checker.attach_automaton(automaton)
    return checker, automaton


def grow(checker, n_tasks=4):
    """Feed one compliant trail, materializing states lazily."""
    trail = [entry(f"T{i}", i, case="G") for i in range(1, n_tasks + 1)]
    assert checker.check(trail).compliant


class TestThresholds:
    def test_no_growth_is_always_a_noop(self, tmp_path):
        _, automaton = compiled_checker()
        writer = CheckpointWriter(automaton, tmp_path / "a.table.bin")
        assert writer.pending_growth == 0
        assert writer.maybe_save() is None
        assert writer.maybe_save(force=True) is None
        assert not (tmp_path / "a.table.bin").exists()

    def test_growth_below_threshold_waits(self, tmp_path):
        checker, automaton = compiled_checker()
        writer = CheckpointWriter(
            automaton, tmp_path / "a.table.bin", min_growth=10_000
        )
        grow(checker)
        assert writer.pending_growth > 0
        assert writer.maybe_save() is None
        assert not (tmp_path / "a.table.bin").exists()

    def test_force_flushes_any_growth(self, tmp_path):
        checker, automaton = compiled_checker()
        writer = CheckpointWriter(
            automaton, tmp_path / "a.table.bin", min_growth=10_000
        )
        grow(checker)
        path = writer.maybe_save(force=True)
        assert path is not None
        loaded = load_table(path, expected_fingerprint=automaton.fingerprint)
        assert loaded.n_states == automaton.n_states

    def test_interval_rate_limits(self, tmp_path):
        checker, automaton = compiled_checker()
        writer = CheckpointWriter(
            automaton,
            tmp_path / "a.table.bin",
            min_growth=1,
            min_interval_s=3600.0,
        )
        grow(checker)
        assert writer.maybe_save() is None  # too soon after construction

    def test_zero_interval_saves_on_growth(self, tmp_path):
        checker, automaton = compiled_checker()
        writer = CheckpointWriter(
            automaton, tmp_path / "a.table.bin", min_growth=1, min_interval_s=0.0
        )
        grow(checker)
        assert writer.maybe_save() is not None


class TestIncrementality:
    def test_second_checkpoint_extends_the_first(self, tmp_path):
        checker, automaton = compiled_checker()
        writer = CheckpointWriter(automaton, tmp_path / "a.table.bin")
        grow(checker)
        first = writer.maybe_save(force=True)
        first_states = load_table(first).n_states
        assert writer.pending_growth == 0

        # a violating trail reaches a new (rejection-adjacent) prefix
        assert not checker.check([entry("T1", 0), entry("T3", 1)]).compliant
        if writer.pending_growth > 0:
            second = writer.maybe_save(force=True)
            assert load_table(second).n_states >= first_states

    def test_close_is_force_flush(self, tmp_path):
        checker, automaton = compiled_checker()
        writer = CheckpointWriter(
            automaton, tmp_path / "a.table.bin", min_growth=10_000
        )
        grow(checker)
        assert writer.close() is not None
        assert writer.close() is None  # nothing new to flush


class TestTelemetry:
    def test_counter_and_event(self, tmp_path):
        log = MemoryEventLog()
        registry = MetricsRegistry()
        tel = Telemetry.create(registry=registry, events=log.events)
        checker, automaton = compiled_checker()
        writer = CheckpointWriter(
            automaton, tmp_path / "a.table.bin", telemetry=tel
        )
        grow(checker)
        writer.maybe_save(force=True)
        assert registry.counter("automaton_checkpoints_total").value() == 1.0
        events = log.named(AUTOMATON_CHECKPOINT)
        assert len(events) == 1
        assert events[0]["states"] == automaton.n_states
