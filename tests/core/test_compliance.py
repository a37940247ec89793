"""Tests for Algorithm 1: absorption, task/error transitions, rejection,
frontier behaviour and the incremental session API."""

from datetime import datetime, timedelta

import pytest

from repro.audit import AuditTrail, LogEntry, Status
from repro.bpmn import ProcessBuilder, encode
from repro.core import (
    ABSORBED,
    ERROR_TRANSITION,
    REJECTED,
    TASK_TRANSITION,
    ComplianceChecker,
)
from repro.scenarios import (
    fig9_process,
    parallel_process,
    role_hierarchy,
    sequential_process,
    xor_process,
)


class EntryFactory:
    """Builds well-timed entries for a fixed case."""

    def __init__(self, case="C-1", role="Staff", user="Sam"):
        self.case = case
        self.role = role
        self.user = user
        self.clock = datetime(2010, 1, 1, 9, 0)

    def __call__(self, task, status=Status.SUCCESS, role=None, user=None):
        self.clock += timedelta(minutes=1)
        return LogEntry(
            user=user or self.user,
            role=role or self.role,
            action="work",
            obj=None,
            task=task,
            case=self.case,
            timestamp=self.clock,
            status=status,
        )


@pytest.fixture
def entries():
    return EntryFactory()


def checker_for(process, hierarchy=None):
    return ComplianceChecker(encode(process), hierarchy)


class TestSequentialReplay:
    def test_exact_run_is_compliant(self, entries):
        checker = checker_for(sequential_process(3))
        result = checker.check([entries("T1"), entries("T2"), entries("T3")])
        assert result.compliant
        assert result.accepted_prefix_length == 3

    def test_prefix_is_compliant_and_may_continue(self, entries):
        checker = checker_for(sequential_process(3))
        result = checker.check([entries("T1")])
        assert result.compliant
        assert result.may_continue

    def test_complete_run_may_not_continue(self, entries):
        checker = checker_for(sequential_process(2))
        result = checker.check([entries("T1"), entries("T2")])
        assert result.compliant
        assert not result.may_continue

    def test_skipped_task_rejected(self, entries):
        checker = checker_for(sequential_process(3))
        result = checker.check([entries("T1"), entries("T3")])
        assert not result.compliant
        assert result.failed_index == 1
        assert result.failed_entry.task == "T3"

    def test_out_of_order_rejected(self, entries):
        checker = checker_for(sequential_process(2))
        result = checker.check([entries("T2"), entries("T1")])
        assert not result.compliant
        assert result.failed_index == 0

    def test_empty_trail_is_trivially_compliant(self):
        checker = checker_for(sequential_process(2))
        result = checker.check(AuditTrail([]))
        assert result.compliant
        assert result.trail_length == 0

    def test_unknown_task_rejected(self, entries):
        checker = checker_for(sequential_process(2))
        assert not checker.check([entries("T99")]).compliant


class TestAbsorption:
    """Line 16: the 1-to-n mapping between tasks and log entries."""

    def test_repeated_entries_of_active_task_absorbed(self, entries):
        checker = checker_for(sequential_process(2))
        result = checker.check(
            [entries("T1"), entries("T1"), entries("T1"), entries("T2")]
        )
        assert result.compliant
        outcomes = [step.outcome for step in result.steps]
        assert outcomes == [TASK_TRANSITION, ABSORBED, ABSORBED, TASK_TRANSITION]

    def test_absorption_does_not_advance_the_state(self, entries):
        checker = checker_for(sequential_process(2))
        session = checker.session()
        session.feed(entries("T1"))
        frontier_before = session.frontier
        session.feed(entries("T1"))
        assert session.frontier == frontier_before

    def test_task_no_longer_absorbs_after_next_task(self, entries):
        checker = checker_for(sequential_process(2))
        result = checker.check([entries("T1"), entries("T2"), entries("T1")])
        assert not result.compliant
        assert result.failed_index == 2


class TestErrorHandling:
    def test_failure_takes_error_transition(self, entries):
        checker = checker_for(fig9_process())
        factory = EntryFactory(role="P")
        result = checker.check(
            [factory("T"), factory("T", status=Status.FAILURE), factory("T1")]
        )
        assert result.compliant
        outcomes = [step.outcome for step in result.steps]
        assert outcomes == [TASK_TRANSITION, ERROR_TRANSITION, TASK_TRANSITION]

    def test_failure_without_reachable_error_rejected(self, entries):
        checker = checker_for(sequential_process(2))
        result = checker.check([entries("T1", status=Status.FAILURE)])
        assert not result.compliant

    def test_failure_of_inactive_task_uses_error_if_reachable(self):
        # Line 8's disjunction: a failure entry always goes through the
        # transition search, never absorption.
        checker = checker_for(fig9_process())
        factory = EntryFactory(role="P")
        first = factory("T")
        fail = factory("T", status=Status.FAILURE)
        result = checker.check([first, fail])
        assert result.compliant

    def test_success_required_for_task_labels(self):
        checker = checker_for(sequential_process(2))
        factory = EntryFactory()
        result = checker.check([factory("T1", status=Status.FAILURE)])
        assert not result.compliant


class TestBranching:
    def test_xor_branches_both_accepted(self):
        checker = checker_for(xor_process(3))
        factory = EntryFactory()
        for branch in ("B1", "B2", "B3"):
            result = checker.check(
                [factory("T0"), factory(branch)]
            )
            assert result.compliant, branch

    def test_xor_double_branch_rejected(self):
        checker = checker_for(xor_process(2))
        factory = EntryFactory()
        result = checker.check([factory("T0"), factory("B1"), factory("B2")])
        assert not result.compliant

    def test_parallel_branches_any_order(self):
        checker = checker_for(parallel_process(2))
        for order in (("B1", "B2"), ("B2", "B1")):
            factory = EntryFactory()
            trail = [factory("T0"), factory(order[0]), factory(order[1]), factory("TZ")]
            assert checker.check(trail).compliant, order

    def test_parallel_join_requires_both(self):
        checker = checker_for(parallel_process(2))
        factory = EntryFactory()
        result = checker.check([factory("T0"), factory("B1"), factory("TZ")])
        assert not result.compliant

    def test_interleaved_parallel_work_keeps_multiple_configurations(self):
        checker = checker_for(parallel_process(2))
        factory = EntryFactory()
        session = checker.session()
        session.feed(factory("T0"))
        session.feed(factory("B1"))
        session.feed(factory("B2"))
        # B1's marker may or may not still be present -> several configs.
        assert len(session.frontier) >= 1
        session.feed(factory("B1"))  # late extra action inside task B1
        assert session.compliant


class TestRoleMatching:
    def test_entry_role_must_match_pool(self, entries):
        checker = checker_for(sequential_process(2))
        result = checker.check([entries("T1", role="Intruder")])
        assert not result.compliant

    def test_specialized_role_accepted_with_hierarchy(self):
        builder = ProcessBuilder("phys")
        pool = builder.pool("Physician")
        pool.start_event("S").task("T1").end_event("E")
        builder.chain("S", "T1", "E")
        checker = checker_for(builder.build(), role_hierarchy())
        factory = EntryFactory(role="Cardiologist")
        assert checker.check([factory("T1")]).compliant

    def test_generalized_role_rejected(self):
        builder = ProcessBuilder("cardio")
        pool = builder.pool("Cardiologist")
        pool.start_event("S").task("T1").end_event("E")
        builder.chain("S", "T1", "E")
        checker = checker_for(builder.build(), role_hierarchy())
        factory = EntryFactory(role="Physician")
        assert not checker.check([factory("T1")]).compliant


class TestSessionApi:
    def test_feed_reports_compliance_incrementally(self, entries):
        checker = checker_for(sequential_process(2))
        session = checker.session()
        assert session.feed(entries("T1"))
        assert not session.feed(entries("T9"))
        assert not session.compliant

    def test_entries_after_failure_are_rejected_steps(self, entries):
        checker = checker_for(sequential_process(3))
        session = checker.session()
        session.feed(entries("T9"))
        session.feed(entries("T1"))
        result = session.result()
        assert [s.outcome for s in result.steps] == [REJECTED, REJECTED]
        assert result.failed_index == 0

    def test_result_reflects_configuration_accounting(self, entries):
        checker = checker_for(sequential_process(2))
        result = checker.check([entries("T1"), entries("T2")])
        assert result.configurations_created >= 3
        assert result.final_configurations

    def test_replay_steps_str(self, entries):
        checker = checker_for(sequential_process(2))
        result = checker.check([entries("T1")])
        assert "T1" in str(result.steps[0])

    def test_checker_reusable_across_cases(self, entries):
        checker = checker_for(sequential_process(2))
        first = checker.check([entries("T1")])
        factory = EntryFactory(case="C-2")
        second = checker.check([factory("T1"), factory("T2")])
        assert first.compliant and second.compliant

    def test_result_bool(self, entries):
        checker = checker_for(sequential_process(2))
        assert bool(checker.check([entries("T1")]))
        assert not bool(checker.check([entries("T2")]))


class TestReplayStepRecord:
    """Monitors retain one :class:`ReplayStep` per entry: slotted, still
    picklable (parallel workers ship results), digests unchanged."""

    @staticmethod
    def _paper_report():
        from repro.core.auditor import PurposeControlAuditor
        from repro.scenarios import paper_audit_trail, process_registry

        return PurposeControlAuditor(
            process_registry(), hierarchy=role_hierarchy()
        ).audit(paper_audit_trail())

    def test_steps_carry_no_instance_dict(self, entries):
        checker = checker_for(sequential_process(2))
        result = checker.check(AuditTrail([entries("T1"), entries("T2")]))
        assert result.steps
        assert not hasattr(result.steps[0], "__dict__")

    def test_results_pickle_with_equal_verdict_digests(self):
        import pickle

        from repro.testing.differential import verdict_digest

        report = self._paper_report()
        for result in report.cases.values():
            if result.replay is None:
                continue
            loaded = pickle.loads(pickle.dumps(result.replay))
            assert verdict_digest(loaded) == verdict_digest(result.replay)
            assert loaded.steps == result.replay.steps

    def test_paper_digests_are_pinned(self):
        """The canonical digests of the paper's audit, hashed: any change
        to what a replay step records shows here."""
        import hashlib

        from repro.testing import canonical_digest

        report = self._paper_report()
        pinned = hashlib.sha256()
        for case in sorted(report.cases):
            replay = report.cases[case].replay
            if replay is not None:
                pinned.update(
                    case.encode() + b"\0"
                    + canonical_digest(replay).encode() + b"\n"
                )
        assert pinned.hexdigest() == (
            "1effe456b397eb177003c36639ba98bae266476b25aa7af71724551a84bf783f"
        )
