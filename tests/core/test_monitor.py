"""Tests for the online (streaming) purpose-control monitor."""

import sys
import threading
from dataclasses import replace
from datetime import datetime, timedelta

import pytest

from repro.core.monitor import CaseState, OnlineMonitor
from repro.core.temporal import TemporalConstraints
from repro.scenarios import (
    paper_audit_trail,
    process_registry,
    role_hierarchy,
)


@pytest.fixture
def monitor():
    return OnlineMonitor(process_registry(), hierarchy=role_hierarchy())


class TestStreamingPaperTrail:
    def test_streaming_matches_batch_verdicts(self, monitor):
        for entry in paper_audit_trail():
            monitor.observe(entry)
        assert set(monitor.infringing_cases()) == {
            "HT-10", "HT-11", "HT-20", "HT-21", "HT-30",
        }
        assert monitor.case_state("HT-2") is CaseState.OPEN
        assert monitor.case_state("HT-1") in (CaseState.OPEN, CaseState.COMPLETED)

    def test_infringement_raised_at_offending_entry(self, monitor):
        trail = paper_audit_trail()
        raised = []
        for entry in trail:
            raised.extend((entry, i) for i in monitor.observe(entry).raised)
        # The first infringement fires exactly on Bob's first harvest read.
        first_entry, first_infringement = raised[0]
        assert first_entry.case == "HT-10"
        assert first_infringement.case == "HT-10"

    def test_compliant_entries_raise_nothing(self, monitor):
        for entry in paper_audit_trail().for_case("HT-1"):
            assert monitor.observe(entry).raised == ()

    def test_infringing_case_reported_once(self, monitor):
        trail = list(paper_audit_trail().for_case("HT-11"))
        extra = trail[0].shifted(timedelta(minutes=5))
        first = monitor.observe(trail[0]).raised
        second = monitor.observe(extra).raised
        assert len(first) == 1
        assert second == ()  # same case, already reported
        assert len(monitor.infringements) == 1

    def test_statistics(self, monitor):
        for entry in paper_audit_trail():
            monitor.observe(entry)
        stats = monitor.statistics()
        assert stats["entries"] == 28
        assert stats["infringing"] == 5


class TestUnknownPurpose:
    def test_unknown_case_prefix(self, monitor):
        entry = paper_audit_trail()[0]
        from dataclasses import replace

        alien = replace(entry, case="ZZ-1")
        raised = monitor.observe(alien).raised
        assert len(raised) == 1
        assert monitor.case_state("ZZ-1") is CaseState.INFRINGING


class TestTemporalSweep:
    def test_open_case_times_out(self):
        constraints = TemporalConstraints(max_case_duration=timedelta(days=10))
        monitor = OnlineMonitor(
            process_registry(),
            hierarchy=role_hierarchy(),
            temporal={"treatment": constraints},
        )
        for entry in paper_audit_trail().for_case("HT-2"):
            monitor.observe(entry)
        assert monitor.sweep(datetime(2010, 3, 15)) == []
        violations = monitor.sweep(datetime(2010, 6, 1))
        assert violations
        assert monitor.case_state("HT-2") is CaseState.TIMED_OUT

    def test_timed_out_case_not_reswept(self):
        constraints = TemporalConstraints(max_case_duration=timedelta(days=1))
        monitor = OnlineMonitor(
            process_registry(),
            hierarchy=role_hierarchy(),
            temporal={"treatment": constraints},
        )
        for entry in paper_audit_trail().for_case("HT-2"):
            monitor.observe(entry)
        first = monitor.sweep(datetime(2010, 6, 1))
        second = monitor.sweep(datetime(2010, 7, 1))
        assert first and not second

    def test_purposes_without_constraints_never_time_out(self, monitor):
        for entry in paper_audit_trail().for_case("HT-2"):
            monitor.observe(entry)
        assert monitor.sweep(datetime(2030, 1, 1)) == []


class TestCaseLifecycle:
    def test_open_cases_listing(self, monitor):
        for entry in paper_audit_trail().for_case("HT-2"):
            monitor.observe(entry)
        assert monitor.open_cases() == ["HT-2"]

    def test_unknown_case_state_is_none(self, monitor):
        assert monitor.case_state("HT-404") is None

    def test_ct_case_completes(self, monitor):
        # The CT-1 trail ends at T95 -> E90; depending on the loop the
        # frontier may still allow more T94 rounds from an earlier branch,
        # so accept OPEN or COMPLETED but require compliance.
        for entry in paper_audit_trail().for_case("CT-1"):
            assert monitor.observe(entry).raised == ()
        assert monitor.case_state("CT-1") in (
            CaseState.OPEN, CaseState.COMPLETED,
        )


class TestFailureContainment:
    """Per-case failures are contained; the stream keeps flowing."""

    def sick_registry(self):
        from repro.bpmn import ProcessBuilder
        from repro.policy.registry import ProcessRegistry
        from repro.scenarios import sequential_process

        builder = ProcessBuilder("sick", purpose="sick")
        pool = builder.pool("Staff")
        pool.start_event("S").task("T")
        pool.exclusive_gateway("G1").exclusive_gateway("G2")
        pool.end_event("E")
        builder.chain("S", "T", "G1", "G2")
        builder.flow("G2", "G1")
        builder.flow("G2", "E")
        registry = ProcessRegistry()
        registry.register(sequential_process(2), "OK")
        registry.register(builder.build(validate=False), "NW")
        return registry

    def entry(self, case, task, minute=0):
        from repro.audit import LogEntry, Status

        return LogEntry(
            user="Sam", role="Staff", action="work", obj=None,
            task=task, case=case,
            timestamp=datetime(2010, 1, 1, 9, minute),
            status=Status.SUCCESS,
        )

    def test_non_well_founded_case_contained_as_undecidable(self):
        from repro.core import InfringementKind

        monitor = OnlineMonitor(self.sick_registry())
        raised = monitor.observe(self.entry("NW-1", "T")).raised
        assert len(raised) == 1
        assert raised[0].kind is InfringementKind.UNDECIDABLE
        assert monitor.case_state("NW-1") is CaseState.UNDECIDABLE
        assert monitor.failed_cases() == ["NW-1"]
        # reported once: further entries for the sick case are silent
        assert monitor.observe(self.entry("NW-1", "T", minute=1)).raised == ()
        # ...and healthy cases keep streaming normally
        assert monitor.observe(self.entry("OK-1", "T1", minute=2)).raised == ()
        assert monitor.case_state("OK-1") is CaseState.OPEN

    def test_feed_exception_contained_as_failed(self):
        from repro.core import InfringementKind

        monitor = OnlineMonitor(self.sick_registry())
        monitor.observe(self.entry("OK-1", "T1"))

        class ExplodingSession:
            def feed(self, entry):
                raise RuntimeError("checker blew up")

        monitor._cases["OK-1"].session = ExplodingSession()
        raised = monitor.observe(self.entry("OK-1", "T2", minute=1)).raised
        assert len(raised) == 1
        assert raised[0].kind is InfringementKind.AUDIT_ERROR
        assert "checker blew up" in raised[0].detail
        assert monitor.case_state("OK-1") is CaseState.FAILED
        assert monitor.failed_cases() == ["OK-1"]
        # terminal: nothing more from this case
        assert monitor.observe(self.entry("OK-1", "T2", minute=2)).raised == ()

    def test_contained_failures_counted_by_kind(self):
        from repro.obs import Telemetry

        telemetry = Telemetry.create()
        monitor = OnlineMonitor(self.sick_registry(), telemetry=telemetry)
        monitor.observe(self.entry("NW-1", "T"))
        assert telemetry.registry.counter("audit_errors_total").value(
            kind="undecidable"
        ) == 1

    def test_failed_cases_excluded_from_infringing_listing(self):
        monitor = OnlineMonitor(self.sick_registry())
        monitor.observe(self.entry("NW-1", "T"))
        assert monitor.infringing_cases() == []
        assert monitor.statistics()["undecidable"] == 1

    def test_contained_finding_words_as_the_batch_report(self):
        from repro.audit import AuditTrail
        from repro.core.auditor import PurposeControlAuditor

        entry = self.entry("NW-1", "T")
        monitor = OnlineMonitor(self.sick_registry())
        monitor.observe(entry)
        report = PurposeControlAuditor(self.sick_registry()).audit(
            AuditTrail([entry])
        )
        assert list(monitor.case_findings("NW-1")) == (
            report.cases["NW-1"].infringements
        )
        assert monitor.case_findings("NW-1")[0].detail.startswith(
            "audit did not complete: "
        )


class TestCaseBudget:
    """The engine meters each case's processing time (``case_timeout_s``):
    every entry but the opening one is charged, a case over budget is
    contained as TIMEOUT, and a requeue replays under a fresh meter."""

    def slow_monitor(self):
        from repro.testing import FaultInjector, FaultPlan

        return OnlineMonitor(
            process_registry(),
            hierarchy=role_hierarchy(),
            case_timeout_s=0.15,
            checker_wrapper=FaultInjector(
                FaultPlan(slow_s=0.1, only_in_workers=False),
                purposes=("clinicaltrial",),
            ),
        )

    def test_case_over_budget_is_contained_at_its_third_entry(self):
        from repro.core import InfringementKind
        from repro.core.resilience import OutcomeKind

        monitor = self.slow_monitor()
        raised = [
            monitor.observe(entry).raised
            for entry in paper_audit_trail().for_case("CT-1")
        ]
        # 0.1 s per entry: the opening entry is free, the second brings
        # the meter to 0.1 s, the third to 0.2 s > 0.15 s.
        assert raised[:2] == [(), ()]
        assert [f.kind for f in raised[2]] == [InfringementKind.TIMEOUT]
        assert raised[3:] == [(), (), ()]
        assert monitor.case_state("CT-1") is CaseState.FAILED
        assert monitor.case_failure_kind("CT-1") is OutcomeKind.TIMEOUT

    def test_requeue_replays_under_a_fresh_meter(self):
        from repro.core.resilience import OutcomeKind

        monitor = self.slow_monitor()
        for entry in paper_audit_trail().for_case("CT-1"):
            monitor.observe(entry)
        assert monitor.requeue("CT-1") == (
            CaseState.FAILED, 6, OutcomeKind.TIMEOUT,
        )
        assert len(monitor.case_findings("CT-1")) == 1
        assert monitor.requeue("HT-404") == (None, 0, None)


class TestServeFacingSurface:
    """The methods the streaming audit service builds on."""

    def test_case_result_digests_match_batch_replay(self, monitor):
        """The incremental session result is byte-identical to a batch
        replay of the same trail — including infringing cases, whose
        sessions keep absorbing entries as REJECTED steps."""
        from repro.core.auditor import PurposeControlAuditor
        from repro.testing import canonical_digest

        trail = paper_audit_trail()
        for entry in trail:
            monitor.observe(entry)
        report = PurposeControlAuditor(
            process_registry(), hierarchy=role_hierarchy()
        ).audit(trail)
        for case, result in report.cases.items():
            if result.replay is None:
                continue
            streamed = monitor.case_result(case)
            assert streamed is not None, case
            assert canonical_digest(streamed) == canonical_digest(
                result.replay
            ), case

    def test_findings_word_as_the_batch_report(self, monitor):
        from repro.core.auditor import PurposeControlAuditor

        trail = paper_audit_trail()
        for entry in trail:
            monitor.observe(entry)
        report = PurposeControlAuditor(
            process_registry(), hierarchy=role_hierarchy()
        ).audit(trail)
        for case, result in report.cases.items():
            assert list(monitor.case_findings(case)) == result.infringements

    def test_terminal_cases_still_account_entries(self, monitor):
        trail = paper_audit_trail()
        for entry in trail:
            monitor.observe(entry)
        # HT-10 infringes on its first entry; later entries return no
        # new findings but the replay accounting keeps growing.
        result = monitor.case_result("HT-10")
        assert result is not None
        assert result.trail_length == len(trail.for_case("HT-10"))
        assert not result.compliant

    def test_contain_classifies_timeouts(self, monitor):
        from repro.core.resilience import OutcomeKind
        from repro.errors import CaseTimeoutError

        for entry in paper_audit_trail():
            monitor.observe(entry)
        assert monitor.case_state("HT-2") is CaseState.OPEN
        finding = monitor.contain(
            "HT-2", CaseTimeoutError("budget blown", budget_s=1.0)
        )
        assert monitor.case_state("HT-2") is CaseState.FAILED
        assert monitor.case_failure_kind("HT-2") is OutcomeKind.TIMEOUT
        assert "budget blown" in finding.detail

    def test_contain_classifies_generic_errors(self, monitor):
        from repro.core.resilience import OutcomeKind

        monitor.observe(paper_audit_trail()[0])
        monitor.contain("HT-1", RuntimeError("shard hiccup"))
        assert monitor.case_failure_kind("HT-1") is OutcomeKind.ERROR
        assert monitor.case_state("HT-1") is CaseState.FAILED

    def test_checker_wrapper_seam_is_applied(self):
        wrapped_purposes = []

        def wrapper(checker, purpose):
            wrapped_purposes.append(purpose)
            return checker

        monitor = OnlineMonitor(
            process_registry(),
            hierarchy=role_hierarchy(),
            checker_wrapper=wrapper,
        )
        for entry in paper_audit_trail():
            monitor.observe(entry)
        assert sorted(set(wrapped_purposes)) == ["clinicaltrial", "treatment"]
        # wrapping must not perturb verdicts
        assert set(monitor.infringing_cases()) == {
            "HT-10", "HT-11", "HT-20", "HT-21", "HT-30",
        }

    def test_cases_and_purpose_inspection(self, monitor):
        for entry in paper_audit_trail():
            monitor.observe(entry)
        assert monitor.cases()[0] == "HT-1"
        assert monitor.case_purpose("HT-1") == "treatment"
        assert monitor.case_purpose("CT-1") == "clinicaltrial"
        assert monitor.case_purpose("nope") is None
        assert monitor.case_result("nope") is None


class TestReadersRaceObserve:
    """The service reads a live monitor (``/healthz``, the ``status`` op,
    the control API) from other threads while the engine keeps observing
    new cases; no reader may trip over the growing case table.
    """

    def test_readers_survive_thousands_of_new_cases(self, monitor):
        opening = paper_audit_trail().for_case("HT-1")[0]
        entries = [replace(opening, case=f"HT-{n}") for n in range(4000)]
        errors: list[BaseException] = []
        done = threading.Event()

        def read() -> None:
            try:
                while not done.is_set():
                    monitor.statistics()
                    monitor.open_cases()
                    monitor.infringing_cases()
                    monitor.failed_cases()
            except BaseException as error:  # pragma: no cover - the bug
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=read) for _ in range(3)]
        for reader in readers:
            reader.start()
        try:
            for entry in entries:
                monitor.observe(entry)
        finally:
            done.set()
            for reader in readers:
                reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert not errors, errors[0]
        stats = monitor.statistics()
        assert stats["entries"] == len(entries)
        assert stats[CaseState.OPEN.value] == len(entries)
