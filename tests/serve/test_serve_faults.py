"""Fault harness for the streaming audit service.

The trio the service must survive without losing unrelated cases:

* a client that disconnects mid-stream (the TCP session dies, the
  per-case monitor state must not);
* a checker crash inside the engine (:class:`FaultPlan.raise_on_case` —
  contained to the case, classified ``error``, counted under
  ``audit_errors_total``);
* a slow/stuck case (``FaultPlan.slow_s`` + the service's per-case
  processing budget — quarantined as ``timeout``, the rest of the
  stream keeps its exact batch-replay verdicts), including one whose
  single step would run for seconds (the budget stops its WeakNext
  exploration).
"""

import errno
import time

import pytest

from repro.control import ControlPlane
from repro.core.resilience import OutcomeKind
from repro.obs import MemoryEventLog, MetricsRegistry, Telemetry
from repro.scenarios import (
    paper_audit_trail,
    process_registry,
    role_hierarchy,
)
from repro.serve import AuditStreamClient, ServeConfig, ShardRouter
from repro.testing import FaultInjector, FaultPlan, reset_fault_counters
from tests.oracle import interpreted_digests


@pytest.fixture(autouse=True)
def _fresh_fault_counters():
    reset_fault_counters()
    yield
    reset_fault_counters()


def _telemetry() -> "tuple[Telemetry, MemoryEventLog]":
    log = MemoryEventLog()
    telemetry = Telemetry.create(
        registry=MetricsRegistry(), events=log.events
    )
    return telemetry, log


def _batch_digests(exclude=()):
    digests = interpreted_digests(
        process_registry(), paper_audit_trail(), role_hierarchy()
    )
    return {
        case: digest for case, digest in digests.items() if case not in exclude
    }


class TestClientDisconnect:
    def test_case_state_survives_an_aborted_connection(self, serve_factory):
        trail = list(paper_audit_trail())
        half = len(trail) // 2
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(),
        )

        first = AuditStreamClient(handle.host, handle.port)
        first.recv_until("hello")
        first.send_trail(trail[:half])
        first.sync()
        first.abort()  # RST, no goodbye — a crashed log shipper

        # The service must still be accepting; a second shipper resumes
        # the same stream and every case converges on the batch verdict.
        with AuditStreamClient(handle.host, handle.port) as second:
            second.recv_until("hello")
            second.send_trail(trail[half:])
            second.sync()
            served = second.results()

        for case, digest in _batch_digests().items():
            assert served[case]["digest"] == digest, (
                f"case {case} lost state across the disconnect"
            )

    def test_junk_line_costs_one_line_not_the_stream(self, serve_factory):
        telemetry, log = _telemetry()
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(),
            telemetry=telemetry,
        )
        trail = list(paper_audit_trail())
        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            client.send_trail(trail[:3])
            client.send_raw(b"this is not json")
            error = client.recv_until("error")
            assert "JSON" in error["detail"]
            client.send_trail(trail[3:])
            client.sync()
            served = client.results()
        assert set(_batch_digests()) <= set(served)
        assert len(handle.router.dead_letters) == 1
        assert (
            telemetry.registry.counter("serve_protocol_errors_total").total
            == 1
        )


class TestCheckerCrashInShard:
    def test_injected_crash_quarantines_only_its_case(self, serve_factory):
        telemetry, log = _telemetry()
        # The first treatment case to start a session anywhere raises;
        # streaming HT-1's opening entry first (then syncing) makes that
        # deterministically HT-1.
        injector = FaultInjector(
            FaultPlan(raise_on_case=1, only_in_workers=False),
            purposes=("treatment",),
        )
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(),
            telemetry=telemetry,
            checker_wrapper=injector,
        )
        trail = list(paper_audit_trail())
        victim = trail[0].case

        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            client.send_entry(trail[0])
            client.sync()
            client.send_trail(trail[1:])
            client.sync()
            served = client.results()

        assert served[victim]["state"] == "failed"
        assert served[victim]["failure_kind"] == "error"
        quarantined = handle.router.quarantined_cases()
        assert quarantined.get(victim) is OutcomeKind.ERROR
        assert (
            telemetry.registry.counter("audit_errors_total").value(
                kind="error"
            )
            >= 1
        )
        # Every *other* case still matches batch replay byte for byte.
        for case, digest in _batch_digests(exclude={victim}).items():
            assert served[case]["digest"] == digest, (
                f"case {case} was disturbed by {victim}'s crash"
            )
        # And the stream is still live for new work.
        status = handle.router.statistics()
        assert status["draining"] is False


class TestSlowStuckCase:
    def test_slow_case_is_quarantined_not_the_stream(self, serve_factory):
        telemetry, log = _telemetry()
        # Every clinical-trial entry sleeps; the per-case budget trips
        # after the first one.  Treatment cases share the engine with
        # the stuck case and must be untouched.
        # One injected sleep dwarfs the budget, while the budget stays
        # well above what an honest case costs even on a cold engine
        # (the first case pays the closure warm-up) and even when the
        # whole suite's worth of GIL pressure inflates wall-clock
        # billing — the budget meter is wall time around each entry.
        injector = FaultInjector(
            FaultPlan(slow_s=2.0, only_in_workers=False),
            purposes=("clinicaltrial",),
        )
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(case_timeout_s=1.2),
            telemetry=telemetry,
            checker_wrapper=injector,
        )
        trail = list(paper_audit_trail())
        started = time.perf_counter()
        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            client.send_trail(trail)
            client.sync()
            served = client.results()
        elapsed = time.perf_counter() - started

        assert served["CT-1"]["state"] == "failed"
        assert served["CT-1"]["failure_kind"] == "timeout"
        assert (
            handle.router.quarantined_cases().get("CT-1")
            is OutcomeKind.TIMEOUT
        )
        assert (
            telemetry.registry.counter("audit_errors_total").value(
                kind="timeout"
            )
            >= 1
        )
        # Quarantine means the sleeps stop: a couple of naps at most,
        # not one per CT entry.
        assert elapsed < 15.0
        for case, digest in _batch_digests(exclude={"CT-1"}).items():
            assert served[case]["digest"] == digest, (
                f"case {case} was disturbed by the stuck case"
            )

    def test_quarantine_event_is_emitted(self, serve_factory):
        telemetry, log = _telemetry()
        injector = FaultInjector(
            FaultPlan(slow_s=2.0, only_in_workers=False),
            purposes=("clinicaltrial",),
        )
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(case_timeout_s=1.2),
            telemetry=telemetry,
            checker_wrapper=injector,
        )
        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            client.send_trail(paper_audit_trail())
            client.sync()
        events = [
            event
            for event in log.records()
            if event["event"] == "case.quarantined"
        ]
        assert events and events[0]["case"] == "CT-1"
        assert events[0]["kind"] == "timeout"
        assert (
            telemetry.registry.counter(
                "serve_quarantined_cases_total"
            ).value(kind="timeout")
            == 1
        )

    @staticmethod
    def _slow_trial_router(telemetry):
        """A 0.5 s budget, 0.4 s per clinical-trial entry:
        CT-1 (6 entries) is contained after its third entry (the
        opening entry is not charged)."""
        injector = FaultInjector(
            FaultPlan(slow_s=0.4, only_in_workers=False),
            purposes=("clinicaltrial",),
        )
        router = ShardRouter(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(case_timeout_s=0.5),
            telemetry=telemetry,
            checker_wrapper=injector,
        )
        router.start()
        for entry in paper_audit_trail():
            assert router.submit(entry).accepted
        assert router.quarantined_cases().get("CT-1") is OutcomeKind.TIMEOUT
        return router

    def test_requeue_replays_under_a_fresh_budget(self):
        telemetry, _ = _telemetry()
        router = self._slow_trial_router(telemetry)
        try:
            result = router.requeue_case("CT-1")
            plane = ControlPlane(router=router, telemetry=telemetry)
            status, payload, _ = plane.handle(
                "GET", "/api/v1/cases/CT-1", {}, None
            )
        finally:
            router.drain()
        # The replay is metered like the live run: the case blows its
        # budget again and goes back into quarantine, with one finding.
        assert result.accepted and result.replayed_entries == 6
        assert result.state == "failed"
        assert router.quarantined_cases().get("CT-1") is OutcomeKind.TIMEOUT
        assert status == 200
        assert payload["state"] == "failed"
        assert payload["failure_kind"] == "timeout"
        assert payload["quarantined"] is True
        assert [f["kind"] for f in payload["findings"]] == ["timeout"]
        requeues = telemetry.registry.counter("serve_requeues_total")
        assert requeues.value(outcome="requarantined") == 1
        assert requeues.value(outcome="replayed") == 0

    def test_requeue_outcome_is_counted_when_the_replay_finishes(self):
        telemetry, _ = _telemetry()
        router = self._slow_trial_router(telemetry)
        requeues = telemetry.registry.counter("serve_requeues_total")
        try:
            # The replay runs before the requeue answers, so its outcome
            # is counted by then.
            assert requeues.total == 0
            result = router.requeue_case("CT-1")
            assert result.accepted and result.state == "failed"
            assert requeues.value(outcome="requarantined") == 1
            assert requeues.value(outcome="replayed") == 0
        finally:
            router.drain()


class TestStepDeadline:
    """The case budget bounds one step: a charged entry's WeakNext
    exploration stops when what is left of its case's budget runs out,
    so a step that would run for seconds cannot hold up the stream."""

    SLOW_S = 0.2  # per state expanded

    def test_a_slow_step_is_contained_within_about_the_budget(
        self, monkeypatch
    ):
        from repro.cows.lts import LTS

        trail = list(paper_audit_trail())
        # HT-1's T09 step expands 30 states over four fresh WeakNext
        # explorations on a cold engine: 6 s at SLOW_S per state.
        slow = next(
            index
            for index, entry in enumerate(trail)
            if entry.case == "HT-1" and entry.task == "T09"
        )
        router = ShardRouter(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(case_timeout_s=0.5),
        )
        router.start()
        successors = LTS.successors

        def slow_successors(lts, state):
            time.sleep(self.SLOW_S)
            return successors(lts, state)

        try:
            for entry in trail[:slow]:
                assert router.submit(entry).accepted
            monkeypatch.setattr(LTS, "successors", slow_successors)
            started = time.monotonic()
            assert router.submit(trail[slow]).accepted
            elapsed = time.monotonic() - started
            monkeypatch.setattr(LTS, "successors", successors)
            for entry in trail[slow + 1:]:
                assert router.submit(entry).accepted
            served = router.results()
            quarantined = router.quarantined_cases()
        finally:
            router.drain()
        assert elapsed < 2.0
        assert quarantined == {"HT-1": OutcomeKind.TIMEOUT}
        assert served["HT-1"]["state"] == "failed"
        assert served["HT-1"]["failure_kind"] == "timeout"
        assert {
            case: record["digest"]
            for case, record in served.items()
            if case != "HT-1" and record["digest"] is not None
        } == _batch_digests(exclude={"HT-1"})


class TestSyncFailure:
    def test_a_failed_fsync_answers_the_sync_with_an_error(
        self, serve_factory, tmp_path, monkeypatch
    ):
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            # No flush tick during the test: only the sync fsyncs.
            config=ServeConfig(
                store_path=str(tmp_path / "audit.db"),
                wal_dir=str(tmp_path / "wal"),
                flush_interval_s=60,
            ),
        )

        def disk_full() -> int:
            raise OSError(errno.ENOSPC, "injected disk full (fsync)")

        monkeypatch.setattr(handle.router, "wal_commit", disk_full)
        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            client.send_entry(paper_audit_trail()[0])
            client.send({"op": "sync", "id": 1})
            error = client.recv_until("error")
        # Never `synced`: the entry is not known to be durable.
        assert error["detail"].startswith("sync failed: ")
        assert "injected disk full" in error["detail"]


class TestNonWellFoundedPurpose:
    """A registered purpose outside the decidable fragment (a task-less
    gateway cycle) is contained per case at observe time; it must not
    keep the router from starting for every other purpose, with tables
    grown from the stream or compiled into an ``automaton_dir``."""

    @pytest.mark.parametrize("compiled", [False, True], ids=["grown", "compiled"])
    def test_router_starts_and_contains_the_case(self, compiled, tmp_path):
        from repro.policy.registry import ProcessRegistry
        from repro.scenarios import sequential_process
        from tests.core.test_resilience import (
            mixed_trail,
            non_well_founded_process,
        )

        registry = ProcessRegistry()
        registry.register(sequential_process(2), "OK")
        registry.register(non_well_founded_process(), "NW")
        trail = mixed_trail()
        automata = str(tmp_path / "automata") if compiled else None
        router = ShardRouter(
            registry, config=ServeConfig(automaton_dir=automata)
        )
        router.start()
        try:
            for entry in trail:
                assert router.submit(entry).accepted
            served = router.results()
        finally:
            router.drain()
        expected = interpreted_digests(registry, trail)
        assert sorted(expected) == sorted(
            case for case in served if case.startswith("OK")
        )
        for case, digest in expected.items():
            assert served[case]["digest"] == digest, case
        assert served["NW-1"]["failure_kind"] == "undecidable"
        assert served["NW-1"]["state"] == "undecidable"
