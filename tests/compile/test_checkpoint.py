"""Tests for the one save of a lazily grown automaton.

A replay grows its automaton in place; the case engine writes it back to
the artifact it was warmed from when a batch replay ends
(:meth:`OnlineMonitor.save_automata`), and only if it grew.  Nothing
else writes an artifact but :func:`repro.compile.precompile`: not a
temporal sweep, and not the daemon's drain.
"""

from datetime import datetime, timedelta

import repro.compile.artifact
from repro.audit import AuditTrail, LogEntry, Status
from repro.compile import load_table
from repro.core import OnlineMonitor, PurposeControlAuditor
from repro.obs import MetricsRegistry, Telemetry
from repro.obs.log import AUTOMATON_CHECKPOINT, MemoryEventLog
from repro.policy.registry import ProcessRegistry
from repro.scenarios import (
    paper_audit_trail,
    process_registry,
    role_hierarchy,
    sequential_process,
)
from repro.serve import ServeConfig, ShardRouter


def entry(task, minute=0, case="C-1", role="Staff"):
    return LogEntry(
        user="Sam",
        role=role,
        action="work",
        obj=None,
        task=task,
        case=case,
        timestamp=datetime(2010, 1, 1, 9, 0) + timedelta(minutes=minute),
        status=Status.SUCCESS,
    )


def registry(n_tasks=4):
    registry = ProcessRegistry()
    registry.register(sequential_process(n_tasks), "C")
    return registry


def engine(directory, telemetry=None):
    return OnlineMonitor(
        registry(), automaton_dir=str(directory), telemetry=telemetry
    )


def grow(monitor, case="C-1", n_tasks=4):
    """Feed one compliant trail, materializing states lazily."""
    for minute, task in enumerate(f"T{i}" for i in range(1, n_tasks + 1)):
        monitor.observe(entry(task, minute, case=case))


def artifacts(directory):
    return sorted(directory.glob("*.table.bin"))


def snapshot(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


class TestThresholds:
    """Growth is the one threshold left: no throttle, no interval."""

    def test_no_growth_is_always_a_noop(self, tmp_path):
        monitor = engine(tmp_path)
        monitor.checker_for("seq-4")
        monitor.save_automata()
        assert artifacts(tmp_path) == []

    def test_force_flushes_any_growth(self, tmp_path):
        monitor = engine(tmp_path)
        grow(monitor)
        monitor.save_automata()
        [path] = artifacts(tmp_path)
        automaton = monitor.checker_for("seq-4").automaton
        loaded = load_table(path, expected_fingerprint=automaton.fingerprint)
        assert loaded.n_states == automaton.n_states
        assert loaded.transition_count == automaton.transition_count


class TestIncrementality:
    def test_second_checkpoint_extends_the_first(self, tmp_path):
        monitor = engine(tmp_path)
        grow(monitor)
        monitor.save_automata()
        [path] = artifacts(tmp_path)
        first = path.read_bytes()
        first_states = load_table(path).n_states

        # A violating trail reaches a new (rejection-adjacent) prefix.
        monitor.observe(entry("T1", 0, case="C-2"))
        monitor.observe(entry("T3", 1, case="C-2"))
        monitor.save_automata()
        assert path.read_bytes() != first
        assert load_table(path).n_states >= first_states

    def test_close_is_force_flush(self, tmp_path, monkeypatch):
        """The end-of-replay save flushes any growth, however small, and a
        repeated one finds nothing new to write."""
        saves = []
        real = repro.compile.artifact.save_table

        def counting(automaton, path):
            saves.append(path)
            return real(automaton, path)

        monkeypatch.setattr(repro.compile.artifact, "save_table", counting)
        monitor = engine(tmp_path)
        monitor.observe(entry("T1"))  # one step of growth
        monitor.save_automata()
        assert saves == artifacts(tmp_path) and len(saves) == 1
        monitor.save_automata()
        assert len(saves) == 1

    def test_a_warm_engine_writes_only_what_it_grew(self, tmp_path):
        cold = engine(tmp_path)
        grow(cold)
        cold.save_automata()
        [path] = artifacts(tmp_path)
        saved = path.read_bytes()

        warm = engine(tmp_path)
        grow(warm)  # served from the loaded table: no growth
        warm.save_automata()
        assert path.read_bytes() == saved


class TestTelemetry:
    def test_counter_and_event(self, tmp_path):
        log = MemoryEventLog()
        metrics = MetricsRegistry()
        tel = Telemetry.create(registry=metrics, events=log.events)
        monitor = engine(tmp_path, telemetry=tel)
        grow(monitor)
        monitor.save_automata()
        monitor.save_automata()  # no growth: neither counted nor announced
        assert metrics.counter("automaton_checkpoints_total").value() == 1.0
        events = log.named(AUTOMATON_CHECKPOINT)
        assert len(events) == 1
        automaton = monitor.checker_for("seq-4").automaton
        assert events[0]["purpose"] == "seq-4"
        assert events[0]["states"] == automaton.n_states
        assert events[0]["path"] == str(artifacts(tmp_path)[0])

    def test_counter_is_registered_with_a_cache_only(self, tmp_path):
        metrics = MetricsRegistry()
        monitor = engine(tmp_path, telemetry=Telemetry.create(registry=metrics))
        monitor.checker_for("seq-4")
        assert metrics.get("automaton_checkpoints_total") is not None

        metrics = MetricsRegistry()
        in_memory = OnlineMonitor(
            registry(), telemetry=Telemetry.create(registry=metrics)
        )
        assert in_memory.checker_for("seq-4").automaton is not None
        assert metrics.get("automaton_checkpoints_total") is None


class TestWhoSaves:
    def test_a_batch_audit_saves_once_when_it_ends(self, tmp_path, monkeypatch):
        saves = []
        real = repro.compile.artifact.save_table

        def counting(automaton, path):
            saves.append(path)
            return real(automaton, path)

        monkeypatch.setattr(repro.compile.artifact, "save_table", counting)
        trail = AuditTrail(
            [entry(f"T{i}", i, case=f"C-{n}") for n in range(3) for i in (1, 2)]
        )
        PurposeControlAuditor(registry(), automaton_dir=str(tmp_path)).audit(
            trail
        )
        assert saves == artifacts(tmp_path)

    def test_a_sweep_writes_nothing(self, tmp_path):
        monitor = engine(tmp_path)
        grow(monitor)
        monitor.sweep(datetime(2010, 1, 2))
        assert artifacts(tmp_path) == []

    def test_drain_leaves_the_artifacts_as_boot_wrote_them(self, tmp_path):
        router = ShardRouter(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(automaton_dir=str(tmp_path)),
        )
        router.start()
        booted = snapshot(tmp_path)
        assert booted
        trail = list(paper_audit_trail())
        for item in trail:
            assert router.submit(item).accepted
        # A role and a task no process knows: the table grows a column.
        stray = entry("Z99", case="HT-99", role="Stranger")
        assert router.submit(stray).accepted
        router.drain()
        assert snapshot(tmp_path) == booted
