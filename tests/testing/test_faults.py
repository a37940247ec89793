"""Tests for the deterministic fault-injection harness itself."""

import multiprocessing
import os
from datetime import datetime, timedelta

import pytest

from repro.audit import AuditTrail, LogEntry, Status
from repro.audit.store import AuditStore
from repro.audit.xes import XesError, export_xes, import_xes
from repro.bpmn import encode
from repro.core import ComplianceChecker, PurposeControlAuditor
from repro.core.resilience import Quarantine
from repro.obs import MetricsRegistry, Telemetry
from repro.obs.log import ARTIFACT_INVALID, MemoryEventLog
from repro.policy.registry import ProcessRegistry
from repro.scenarios import sequential_process
from repro.testing import (
    FaultInjector,
    FaultPlan,
    FaultyChecker,
    InjectedFaultError,
    cases_started,
    corrupt_artifact,
    corrupt_store_row,
    corrupt_xes_event,
    reset_fault_counters,
)


def entry(case, task, minute):
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


@pytest.fixture
def checker():
    return ComplianceChecker(encode(sequential_process(2)))


class TestCaseCounters:
    def test_counts_per_plan_name(self, checker):
        reset_fault_counters()
        plan = FaultPlan(name="counting")
        faulty = FaultyChecker(checker, plan, "seq-2")
        assert cases_started("counting") == 0
        faulty.check([entry("C-1", "T1", 0)])
        faulty.session()
        assert cases_started("counting") == 2
        assert cases_started("other") == 0
        reset_fault_counters("counting")
        assert cases_started("counting") == 0


class TestRaiseFault:
    def test_raises_on_exactly_the_nth_case(self, checker):
        reset_fault_counters()
        plan = FaultPlan(name="raise-2nd", raise_on_case=2)
        faulty = FaultyChecker(checker, plan, "seq-2")
        first = faulty.check([entry("C-1", "T1", 0), entry("C-1", "T2", 1)])
        assert first.compliant  # case 1: inert
        with pytest.raises(InjectedFaultError) as excinfo:
            faulty.check([entry("C-2", "T1", 0)])
        assert "case #2" in str(excinfo.value)
        # case 3: the trigger has passed, back to normal
        assert faulty.check([entry("C-3", "T1", 0)]).compliant

    def test_inert_plan_is_byte_identical(self, checker):
        reset_fault_counters()
        plan = FaultPlan(name="inert")
        faulty = FaultyChecker(checker, plan, "seq-2")
        entries = [entry("C-1", "T1", 0), entry("C-1", "T2", 1)]
        wrapped = faulty.check(entries)
        plain = checker.check(entries)
        assert wrapped.compliant == plain.compliant
        assert wrapped.failed_index == plain.failed_index
        assert len(wrapped.steps) == len(plain.steps)

    def test_faulty_session_delegates(self, checker):
        reset_fault_counters()
        plan = FaultPlan(name="session")
        session = FaultyChecker(checker, plan, "seq-2").session()
        assert session.feed(entry("C-1", "T1", 0))
        assert session.entries_fed == 1
        assert session.compliant
        assert session.result().compliant


class TestCrashFault:
    def test_guarded_crash_is_inert_in_the_arming_process(self, checker):
        # only_in_workers (default): armed in THIS process, so the crash
        # must not fire here — the serial-fallback safety property.
        reset_fault_counters()
        plan = FaultPlan(name="guarded-crash", crash_on_case=1)
        assert plan.armed_pid == os.getpid()
        faulty = FaultyChecker(checker, plan, "seq-2")
        assert faulty.check([entry("C-1", "T1", 0)]).compliant  # still alive

    def test_crash_fires_in_another_process(self, checker):
        plan = FaultPlan(name="real-crash", crash_on_case=1, exit_code=17)
        context = multiprocessing.get_context()
        process = context.Process(
            target=_crash_victim, args=(plan,), daemon=True
        )
        process.start()
        process.join(timeout=30)
        assert process.exitcode == 17


def _crash_victim(plan):
    plan.on_case_start("seq-2")  # different pid: os._exit(17)
    os._exit(0)  # pragma: no cover - unreachable when the fault fires


class TestInjectorTargeting:
    def test_untargeted_purpose_is_left_unwrapped(self, checker):
        injector = FaultInjector(
            plan=FaultPlan(name="target"), purposes=("other",)
        )
        assert injector(checker, "seq-2") is checker
        assert isinstance(injector(checker, "other"), FaultyChecker)

    def test_no_purpose_filter_wraps_everything(self, checker):
        injector = FaultInjector(plan=FaultPlan(name="target-all"))
        assert isinstance(injector(checker, "anything"), FaultyChecker)

    def test_injector_is_picklable(self):
        import pickle

        injector = FaultInjector(
            plan=FaultPlan(name="pickled", crash_on_case=2),
            purposes=("seq-2",),
        )
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.plan.crash_on_case == 2
        assert clone.plan.armed_pid == injector.plan.armed_pid


class TestEntryCorruptors:
    def test_corrupt_xes_event_quarantines_exactly_one(self):
        trail = AuditTrail(
            [entry("C-1", "T1", 0), entry("C-1", "T2", 1),
             entry("C-2", "T1", 2)]
        )
        document = export_xes(trail)
        corrupted = corrupt_xes_event(
            document, entry("C-1", "T2", 1).timestamp.isoformat()
        )
        with pytest.raises(XesError):
            import_xes(corrupted)
        quarantine = Quarantine()
        loaded = import_xes(corrupted, quarantine=quarantine)
        assert len(loaded) == len(trail) - 1
        assert len(quarantine) == 1
        assert quarantine.entries[0].source == "xes"

    def test_corrupt_xes_event_rejects_unknown_timestamp(self):
        with pytest.raises(ValueError):
            corrupt_xes_event("<log></log>", "2010-01-01T09:00:00")

    def test_corrupt_store_row_surfaces_as_dead_letter(self, tmp_path):
        db = tmp_path / "trail.db"
        with AuditStore(str(db)) as store:
            store.append_many(
                [entry("C-1", "T1", 0), entry("C-1", "T2", 1)]
            )
            corrupt_store_row(store, 2)
            quarantine = Quarantine()
            trail = store.query(quarantine=quarantine)
            assert len(trail) == 1
            assert len(quarantine) == 1
            assert quarantine.entries[0].source == "store"
            assert quarantine.entries[0].position == 2


class TestArtifactCorruptor:
    """The compiled-replay robustness promise, exercised end to end: a
    damaged automaton artifact is logged and recompiled — it never
    changes a verdict and never fails the audit."""

    @staticmethod
    def _registry():
        return ProcessRegistry().register(sequential_process(2), "C")

    @staticmethod
    def _trail():
        return AuditTrail(
            [
                entry("C-1", "T1", 0),
                entry("C-1", "T2", 1),
                entry("C-2", "T2", 2),  # invalid: skips T1
            ]
        )

    def _flagged(self, auditor, trail):
        return set(auditor.audit(trail).infringing_cases)

    @pytest.mark.parametrize(
        "mode",
        [
            "truncate", "garbage", "version", "fingerprint", "empty",
            "bitflip", "pool",
        ],
    )
    def test_corrupted_artifact_never_fails_the_audit(self, tmp_path, mode):
        registry = self._registry()
        trail = self._trail()
        baseline = self._flagged(
            PurposeControlAuditor(registry), trail
        )

        # first compiled run writes the artifact
        first = PurposeControlAuditor(
            registry, automaton_dir=str(tmp_path)
        )
        assert self._flagged(first, trail) == baseline
        artifacts = sorted(tmp_path.glob("*.table.bin"))
        assert len(artifacts) == 1

        corrupt_artifact(artifacts[0], mode)

        log = MemoryEventLog()
        tel = Telemetry.create(registry=MetricsRegistry(), events=log.events)
        second = PurposeControlAuditor(
            registry, automaton_dir=str(tmp_path), telemetry=tel
        )
        assert self._flagged(second, trail) == baseline  # verdicts intact
        invalid = log.named(ARTIFACT_INVALID)
        assert len(invalid) == 1
        assert invalid[0]["reason"] in (
            "truncated", "format", "version", "fingerprint", "tamper"
        )

        # the recompile healed the cache: a third run loads it cleanly
        from repro.compile import load_table

        third_log = MemoryEventLog()
        third = PurposeControlAuditor(
            registry,
            automaton_dir=str(tmp_path),
            telemetry=Telemetry.create(
                registry=MetricsRegistry(), events=third_log.events
            ),
        )
        assert self._flagged(third, trail) == baseline
        assert third_log.named(ARTIFACT_INVALID) == []
        load_table(sorted(tmp_path.glob("*.table.bin"))[0])
