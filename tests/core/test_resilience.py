"""Tests for the fault-containment layer: the outcome taxonomy, retry
policy, per-case budgets, serial/parallel failure isolation, and the
acceptance scenario of the robustness milestone (a poisoned batch still
completes with a verdict for every case)."""

from datetime import datetime, timedelta

import pytest

from repro.audit import AuditTrail, LogEntry, Status
from repro.bpmn import ProcessBuilder
from repro.core import (
    CaseAuditResult,
    Infringement,
    InfringementKind,
    PurposeControlAuditor,
)
from repro.core.resilience import (
    OutcomeKind,
    Quarantine,
    RetryPolicy,
    classify_failure,
    replay_with_deadline,
)
from repro.errors import (
    CaseTimeoutError,
    EncodingError,
    NotFinitelyObservableError,
    NotWellFoundedError,
    UnknownPurposeError,
)
from repro.obs import Telemetry
from repro.policy.registry import ProcessRegistry
from repro.scenarios import sequential_process
from repro.testing import (
    FaultInjector,
    FaultPlan,
    InjectedFaultError,
    canonical_digest,
)


def non_well_founded_process(purpose="sick"):
    """A task-less gateway cycle: outside the decidable fragment (§5)."""
    builder = ProcessBuilder(purpose, purpose=purpose)
    pool = builder.pool("Staff")
    pool.start_event("S").task("T")
    pool.exclusive_gateway("G1").exclusive_gateway("G2")
    pool.end_event("E")
    builder.chain("S", "T", "G1", "G2")
    builder.flow("G2", "G1")  # silent loop between two gateways
    builder.flow("G2", "E")
    return builder.build(validate=False)


def entry(case, task, minute, role="Staff", user="Sam"):
    return LogEntry(
        user=user,
        role=role,
        action="work",
        obj=None,
        task=task,
        case=case,
        timestamp=datetime(2010, 1, 1, 9, 0) + timedelta(minutes=minute),
        status=Status.SUCCESS,
    )


@pytest.fixture
def mixed_registry():
    """One healthy purpose (prefix OK) and one non-well-founded (NW)."""
    registry = ProcessRegistry()
    registry.register(sequential_process(2), "OK")
    registry.register(non_well_founded_process(), "NW")
    return registry


def mixed_trail(n_healthy=4):
    """n_healthy OK cases (odd ones invalid) plus one NW case."""
    entries = []
    minute = 0
    for i in range(1, n_healthy + 1):
        case = f"OK-{i}"
        tasks = ["T1", "T2"] if i % 2 == 0 else ["T2", "T1"]  # odd: invalid
        for task in tasks:
            entries.append(entry(case, task, minute))
            minute += 1
    entries.append(entry("NW-1", "T", minute))
    return AuditTrail(entries)


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.max_retries == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_none_never_retries(self):
        policy = RetryPolicy.none()
        assert not policy.allows_retry(1)
        assert policy.delay(1) == 0.0

    def test_allows_retry_boundary(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows_retry(1)
        assert policy.allows_retry(2)
        assert not policy.allows_retry(3)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_s=0.1, multiplier=2.0, max_backoff_s=0.3
        )
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(10) == pytest.approx(0.3)


class TestClassification:
    @pytest.mark.parametrize(
        "error, kind",
        [
            (NotFinitelyObservableError("bound", states_explored=7),
             OutcomeKind.UNDECIDABLE),
            (NotWellFoundedError("cycle"), OutcomeKind.UNDECIDABLE),
            (EncodingError("bad"), OutcomeKind.UNDECIDABLE),
            (UnknownPurposeError("who?"), OutcomeKind.UNKNOWN_PURPOSE),
            (CaseTimeoutError("slow", budget_s=1.0, elapsed_s=2.0),
             OutcomeKind.TIMEOUT),
            (RuntimeError("boom"), OutcomeKind.ERROR),
        ],
    )
    def test_mapping(self, error, kind):
        assert classify_failure(error) is kind

    def test_outcome_verdict_projection(self):
        """The outcome taxonomy lives on ``CaseAuditResult.outcome``; its
        last three kinds are the audit failing, not the data use."""
        for kind in OutcomeKind:
            result = CaseAuditResult("c", None, None, outcome=kind)
            assert result.failed is (
                kind
                in (OutcomeKind.UNDECIDABLE, OutcomeKind.ERROR, OutcomeKind.TIMEOUT)
            ), kind


class TestReplayWithDeadline:
    def test_no_budget_is_plain_check(self):
        from repro.bpmn import encode
        from repro.core import ComplianceChecker

        checker = ComplianceChecker(encode(sequential_process(2)))
        entries = [entry("OK-1", "T1", 0), entry("OK-1", "T2", 1)]
        budgeted = replay_with_deadline(checker, entries, None)
        plain = checker.check(entries)
        assert budgeted.compliant == plain.compliant
        assert budgeted.failed_index == plain.failed_index
        assert len(budgeted.steps) == len(plain.steps)

    def test_exhausted_budget_raises(self):
        from repro.bpmn import encode
        from repro.core import ComplianceChecker
        from repro.testing.faults import FaultyChecker

        plan = FaultPlan(name="deadline-test", slow_s=0.05)
        checker = FaultyChecker(
            ComplianceChecker(encode(sequential_process(2))), plan, "seq-2"
        )
        entries = [entry("OK-1", "T1", 0), entry("OK-1", "T2", 1)]
        with pytest.raises(CaseTimeoutError) as excinfo:
            replay_with_deadline(checker, entries, 0.01)
        assert excinfo.value.budget_s == 0.01
        assert excinfo.value.elapsed_s > 0.01


class TestSerialContainment:
    """Satellite: the serial auditor contains per-case replay failures."""

    def test_non_well_founded_case_is_undecidable(self, mixed_registry):
        auditor = PurposeControlAuditor(mixed_registry)
        report = auditor.audit(mixed_trail())
        # every case got a result, the sick one included
        assert set(report.cases) == {"OK-1", "OK-2", "OK-3", "OK-4", "NW-1"}
        sick = report.cases["NW-1"]
        assert sick.outcome is OutcomeKind.UNDECIDABLE
        assert sick.infringements[0].kind is InfringementKind.UNDECIDABLE
        assert "audit did not complete" in sick.infringements[0].detail
        # healthy cases decided exactly as before
        assert report.cases["OK-2"].compliant
        assert report.cases["OK-4"].compliant
        assert not report.cases["OK-1"].compliant
        assert report.failed_cases == ["NW-1"]
        assert "NOT AUDITABLE" not in report.summary()  # status is the kind
        assert "UNDECIDABLE" in report.summary()
        assert "(1 not auditable)" in report.summary()

    def test_silent_state_bound_contained_with_states_explored(self):
        registry = ProcessRegistry()
        registry.register(sequential_process(2), "OK")
        auditor = PurposeControlAuditor(registry, max_silent_states=1)
        report = auditor.audit(
            AuditTrail([entry("OK-1", "T1", 0), entry("OK-1", "T2", 1)])
        )
        result = report.cases["OK-1"]
        assert result.outcome is OutcomeKind.UNDECIDABLE
        assert result.error_type == "NotFinitelyObservableError"
        assert result.states_explored is not None
        assert "states explored" in result.infringements[0].detail

    def test_undecidable_counts_in_telemetry(self, mixed_registry):
        telemetry = Telemetry.create()
        auditor = PurposeControlAuditor(mixed_registry, telemetry=telemetry)
        auditor.audit(mixed_trail())
        assert telemetry.registry.counter("audit_errors_total").value(
            kind="undecidable"
        ) == 1


class TestOnErrorModes:
    def test_fail_mode_raises_unexpected_exceptions(self, mixed_registry):
        injector = FaultInjector(
            plan=FaultPlan(
                name="fail-mode", raise_on_case=1, only_in_workers=False
            ),
            purposes=("seq-2",),
        )
        auditor = PurposeControlAuditor(
            mixed_registry, checker_wrapper=injector
        )
        with pytest.raises(InjectedFaultError):
            auditor.audit(mixed_trail())

    def test_skip_mode_contains_unexpected_exceptions(self, mixed_registry):
        injector = FaultInjector(
            plan=FaultPlan(
                name="skip-mode", raise_on_case=1, only_in_workers=False
            ),
            purposes=("seq-2",),
        )
        auditor = PurposeControlAuditor(
            mixed_registry, checker_wrapper=injector, on_error="skip"
        )
        report = auditor.audit(mixed_trail())
        assert set(report.cases) == {"OK-1", "OK-2", "OK-3", "OK-4", "NW-1"}
        errored = [
            r for r in report.cases.values()
            if r.outcome is OutcomeKind.ERROR
        ]
        assert len(errored) == 1
        assert errored[0].error_type == "InjectedFaultError"
        assert errored[0].infringements[0].kind is InfringementKind.AUDIT_ERROR
        # the cases after the fault still got decided
        assert report.cases["NW-1"].outcome is OutcomeKind.UNDECIDABLE

    def test_case_timeout_contained_as_timeout(self, mixed_registry):
        injector = FaultInjector(
            plan=FaultPlan(name="slow-mode", slow_s=0.05),
            purposes=("seq-2",),
        )
        auditor = PurposeControlAuditor(
            mixed_registry, checker_wrapper=injector, case_timeout_s=0.01
        )
        report = auditor.audit(
            AuditTrail([entry("OK-1", "T1", 0), entry("OK-1", "T2", 1)])
        )
        result = report.cases["OK-1"]
        assert result.outcome is OutcomeKind.TIMEOUT
        assert result.infringements[0].kind is InfringementKind.TIMEOUT
        assert result.error_type == "CaseTimeoutError"


class TestParallelResilience:
    def test_worker_crash_is_recovered(self, mixed_registry):
        # every worker dies on the 3rd case it starts; retries shrink the
        # pending set until fresh workers finish before their trigger.
        trail = mixed_trail(n_healthy=6)
        injector = FaultInjector(
            plan=FaultPlan(name="crash-3rd", crash_on_case=3),
            purposes=("seq-2",),
        )
        report = PurposeControlAuditor(
            mixed_registry,
            workers=2,
            checker_wrapper=injector,
            retry_policy=RetryPolicy(max_attempts=4, backoff_s=0.01),
        ).audit(trail)
        assert list(report.cases) == trail.cases()
        # healthy verdicts identical to the serial, fault-free audit
        baseline = PurposeControlAuditor(mixed_registry).audit(trail)
        for case in trail.cases():
            if case.startswith("OK"):
                assert (
                    report.cases[case].outcome is baseline.cases[case].outcome
                ), case
        assert report.cases["NW-1"].outcome is OutcomeKind.UNDECIDABLE
        # at least one case was re-dispatched after the crash
        assert any(r.retries > 0 for r in report.cases.values())
        assert "retries=" in report.summary()

    def test_repeated_crashes_fall_back_to_serial(self, mixed_registry):
        # crash on the FIRST case of every worker: no pool ever finishes
        # a job, so every case exhausts its attempts and the parent
        # audits it serially (the plan only crashes in workers).
        trail = mixed_trail(n_healthy=2)
        injector = FaultInjector(
            plan=FaultPlan(name="crash-always", crash_on_case=1),
            purposes=("seq-2", "sick"),
        )
        report = PurposeControlAuditor(
            mixed_registry,
            workers=2,
            checker_wrapper=injector,
            retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.01),
        ).audit(trail)
        assert list(report.cases) == trail.cases()
        assert report.cases["OK-2"].outcome is OutcomeKind.COMPLIANT
        assert report.cases["OK-1"].outcome is OutcomeKind.INVALID_EXECUTION
        assert report.cases["NW-1"].outcome is OutcomeKind.UNDECIDABLE
        # the seq-2 cases were lost to a crash on each of their 2 attempts
        assert report.cases["OK-1"].retries == 2
        assert report.cases["OK-2"].retries == 2

    def test_crash_telemetry_counters(self, mixed_registry):
        trail = mixed_trail(n_healthy=2)
        injector = FaultInjector(
            plan=FaultPlan(name="crash-tel", crash_on_case=1),
            purposes=("seq-2", "sick"),
        )
        telemetry = Telemetry.create()
        report = PurposeControlAuditor(
            mixed_registry,
            workers=2,
            checker_wrapper=injector,
            retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.01),
            telemetry=telemetry,
        ).audit(trail)
        reg = telemetry.registry
        assert reg.counter("case_retries_total").total > 0
        assert reg.counter("audit_errors_total").value(kind="undecidable") == 1
        assert reg.counter("cases_audited_total").total == len(report.cases)

    def test_counters_equal_the_serial_run(self, mixed_registry):
        trail = mixed_trail(n_healthy=6)
        serial, pooled = Telemetry.create(), Telemetry.create()
        PurposeControlAuditor(mixed_registry, telemetry=serial).audit(trail)
        PurposeControlAuditor(
            mixed_registry, telemetry=pooled, workers=2
        ).audit(trail)
        for name in (
            "cases_audited_total",
            "infringements_total",
            "audit_errors_total",
            "replay_entries_total",
        ):
            assert (
                pooled.registry.counter(name).samples()
                == serial.registry.counter(name).samples()
            ), name


class TestOnErrorInWorkers:
    """``on_error`` means in a pool what it means serially."""

    def injector(self, name):
        return FaultInjector(
            plan=FaultPlan(name=name, raise_on_case=1), purposes=("seq-2",)
        )

    def test_fail_mode_raises(self, mixed_registry):
        auditor = PurposeControlAuditor(
            mixed_registry,
            workers=2,
            checker_wrapper=self.injector("pool-fail"),
        )
        with pytest.raises(InjectedFaultError):
            auditor.audit(mixed_trail())

    def test_skip_mode_yields_the_serial_finding(self, mixed_registry):
        trail = mixed_trail()
        report = PurposeControlAuditor(
            mixed_registry,
            workers=2,
            checker_wrapper=self.injector("pool-skip"),
            on_error="skip",
        ).audit(trail)
        baseline = PurposeControlAuditor(mixed_registry).audit(trail)
        assert list(report.cases) == trail.cases()
        errored = [
            r for r in report.cases.values() if r.outcome is OutcomeKind.ERROR
        ]
        # each worker faults on the first seq-2 case it starts
        assert 1 <= len(errored) <= 2
        for result in errored:
            assert result.purpose == "seq-2"
            assert result.error_type == "InjectedFaultError"
            assert result.infringements == [
                Infringement(
                    InfringementKind.AUDIT_ERROR,
                    result.case,
                    f"audit did not complete: {result.error}",
                )
            ]
        for case, result in report.cases.items():
            if result.outcome is not OutcomeKind.ERROR:
                assert result.outcome is baseline.cases[case].outcome, case


class TestSerialPathIsolation:
    """Back-to-back audits must not share worker state."""

    def test_back_to_back_audits_use_their_own_registry(self):
        registry_a = ProcessRegistry()
        registry_a.register(sequential_process(2), "P")

        builder = ProcessBuilder("alt", purpose="alt")
        pool = builder.pool("Staff")
        pool.start_event("S").task("A1").task("A2").end_event("E")
        builder.chain("S", "A1", "A2", "E")
        registry_b = ProcessRegistry()
        registry_b.register(builder.build(), "P")

        def trail(first, second):
            return AuditTrail(
                [entry(case, task, minute)
                 for case in ("P-1", "P-2")
                 for minute, task in enumerate((first, second))]
            )

        first = PurposeControlAuditor(registry_a, workers=2).audit(
            trail("T1", "T2")
        )
        assert first.cases["P-1"].outcome is OutcomeKind.COMPLIANT
        # were worker auditors reused across pools, P-1 would replay
        # against registry A's process and come back INVALID_EXECUTION:
        second = PurposeControlAuditor(registry_b, workers=2).audit(
            trail("A1", "A2")
        )
        assert second.cases["P-1"].outcome is OutcomeKind.COMPLIANT
        assert second.cases["P-1"].purpose == "alt"

    def test_parallel_globals_untouched_by_serial_path(self, mixed_registry):
        import repro.core.parallel as parallel_module

        trail = mixed_trail(n_healthy=2)
        PurposeControlAuditor(mixed_registry, workers=1).audit(trail)
        PurposeControlAuditor(mixed_registry, workers=2).audit(trail)
        # the worker auditor is set in workers only, never in the parent
        assert parallel_module._WORKER_AUDITOR is None


class TestAcceptanceScenario:
    """The milestone's acceptance bar: a registry with a non-well-founded
    process, a trail with a corrupt entry, and a checker rigged to crash
    its worker on the 3rd case — the batch completes without raising,
    every case has an outcome, and healthy verdicts are identical to the
    serial auditor's."""

    def test_poisoned_batch_completes(self, mixed_registry):
        from repro.audit.xes import export_xes, import_xes
        from repro.testing import corrupt_xes_event

        trail = mixed_trail(n_healthy=6)
        # corrupt one OK-5 event at the ingestion boundary
        document = export_xes(trail)
        victim = trail.for_case("OK-5").entries[1]
        document = corrupt_xes_event(document, victim.timestamp.isoformat())
        quarantine = Quarantine()
        loaded = import_xes(document, quarantine=quarantine)
        assert len(quarantine) == 1
        assert quarantine.entries[0].source == "xes"
        assert len(loaded) == len(trail) - 1

        injector = FaultInjector(
            plan=FaultPlan(name="acceptance", crash_on_case=3),
            purposes=("seq-2",),
        )
        report = PurposeControlAuditor(
            mixed_registry,
            workers=2,
            checker_wrapper=injector,
            retry_policy=RetryPolicy(max_attempts=4, backoff_s=0.01),
        ).audit(loaded, quarantine=quarantine)
        # completes with a result for every case, the dead letter listed
        assert list(report.cases) == loaded.cases()
        assert report.quarantined == quarantine.entries
        assert report.cases["NW-1"].outcome is OutcomeKind.UNDECIDABLE
        # healthy verdicts byte-identical to the serial auditor's
        serial = PurposeControlAuditor(mixed_registry).audit(loaded)
        for case in loaded.cases():
            if not case.startswith("OK"):
                continue
            assert report.cases[case].outcome is serial.cases[case].outcome
            assert canonical_digest(report.cases[case].replay) == (
                canonical_digest(serial.cases[case].replay)
            ), case
