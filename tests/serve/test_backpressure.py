"""Bounded queues, busy admission control, and client retry.

Overload must degrade explicitly: an entry is refused with
``busy``/``retry_after`` once its shard's queue reaches the watermark
(three quarters of ``queue_capacity``), a barrier that finds a queue
full waits off the event loop, and a well-behaved shipper
(:class:`~repro.serve.client.ResilientAuditClient`) converges to the
exact uninterrupted verdicts anyway — no accepted entry lost, none
double-counted.
"""

import random
import threading
import time
from collections import deque

import pytest

from repro.audit.xes import export_xes
from repro.core.auditor import PurposeControlAuditor
from repro.scenarios import (
    paper_audit_trail,
    process_registry,
    role_hierarchy,
)
from repro.serve import (
    AuditStreamClient,
    ConsistentHashRing,
    ResilientAuditClient,
    ServeConfig,
    ShardRouter,
)
from repro.serve.core import RETRY_AFTER_S
from repro.testing import FaultInjector, FaultPlan, canonical_digest


def _batch_digests():
    report = PurposeControlAuditor(
        process_registry(), hierarchy=role_hierarchy()
    ).audit(paper_audit_trail())
    return {
        case: canonical_digest(result.replay)
        for case, result in report.cases.items()
        if result.replay is not None
    }


def _digests(router) -> dict:
    return {
        case: info["digest"]
        for case, info in router.results().items()
        if info["digest"] is not None
    }


def _slow(slow_s: float) -> FaultInjector:
    return FaultInjector(
        plan=FaultPlan(name=f"slow-{slow_s}", slow_s=slow_s)
    )


class _HeldSession:
    """A session whose every feed waits for *gate* to open."""

    def __init__(self, session, gate: threading.Event):
        self._session = session
        self._gate = gate

    def feed(self, entry):
        assert self._gate.wait(timeout=60)
        return self._session.feed(entry)

    def __getattr__(self, name):
        return getattr(self._session, name)


class _HeldChecker:
    def __init__(self, checker, gate: threading.Event):
        self._checker = checker
        self._gate = gate

    def session(self):
        return _HeldSession(self._checker.session(), self._gate)

    def __getattr__(self, name):
        return getattr(self._checker, name)


def _held(gate: threading.Event):
    """A checker wrapper whose sessions wait for *gate* on every feed."""
    return lambda checker, purpose: _HeldChecker(checker, gate)


def _await_held(router, *shards: str) -> None:
    """Wait until each of *shards* (default: the one shard) has opened a
    case and waits on its gate, its queue empty again."""
    deadline = time.monotonic() + 30
    for shard in shards or ("shard-0",):
        while router.refresh_shard_gauges()[shard]["inflight_cases"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)


def _router(**config) -> ShardRouter:
    defaults = dict(shards=1, queue_capacity=4)
    defaults.update(config)
    router = ShardRouter(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(**defaults),
        checker_wrapper=_slow(0.02),
    )
    router.start()
    return router


class TestAdmissionControl:
    def test_nonblocking_submit_refuses_busy_under_load(self):
        trail = list(paper_audit_trail())
        router = _router()  # queue_capacity 4: the watermark is 3
        pending = deque(trail)
        busy_seen = 0
        while pending:
            entry = pending.popleft()
            admission = router.submit(entry)
            if admission.accepted:
                continue
            assert admission.busy
            assert admission.retry_after_s == RETRY_AFTER_S
            assert "watermark" in admission.reason
            busy_seen += 1
            # Per-case order must survive the retry: put it back at the
            # *front*, exactly where a sequenced shipper would resume.
            pending.appendleft(entry)
            time.sleep(admission.retry_after_s)
        # A µs-scale submit loop against a 20 ms/entry shard must have
        # tripped the watermark.
        assert busy_seen > 0
        assert router.wait_idle(timeout=60)
        assert _digests(router) == _batch_digests()
        stats = router.statistics()["backpressure"]
        assert stats["busy"] == busy_seen
        assert stats["busy_watermark"] == 3
        assert set(stats) == {"busy", "duplicates", "busy_watermark", "levels"}
        router.drain()

    def test_barrier_posts_to_every_shard_or_none(self):
        gate = threading.Event()
        router = ShardRouter(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(shards=2, queue_capacity=4),
            checker_wrapper=_held(gate),
        )
        router.start()
        try:
            ring = ConsistentHashRing(router.shard_names)
            owned = {
                name: [
                    entry
                    for entry in paper_audit_trail()
                    if ring.shard_for(entry.case) == name
                ]
                for name in router.shard_names
            }
            for name in router.shard_names:
                assert router.submit(owned[name][0]).accepted
            _await_held(router, *router.shard_names)
            for entry in owned["shard-1"][1:4]:
                assert router.submit(entry).accepted
            fired: list[int] = []
            # Three entries and one latch fill shard-1's queue...
            assert router.barrier(lambda: fired.append(1))
            # ...so the next barrier is refused whole: shard-0, which
            # has room, gets no latch either.
            assert not router.barrier(lambda: fired.append(2))
            depths = router.refresh_shard_gauges()
            assert depths["shard-0"]["queue_depth"] == 1
            assert depths["shard-1"]["queue_depth"] == 4
            assert not router.wait_idle(timeout=0.2)
            gate.set()
            assert router.wait_idle(timeout=60)
            assert fired == [1]
        finally:
            gate.set()
            router.drain()

    def test_sequence_gap_is_refused_not_fatal(self):
        trail = list(paper_audit_trail())
        case = trail[0].case
        entries = [e for e in trail if e.case == case]
        assert len(entries) >= 2
        router = _router(queue_capacity=64)
        assert router.submit(entries[0], seq=1).accepted
        skipped = router.submit(entries[1], seq=3)
        assert not skipped.accepted
        assert skipped.busy
        assert skipped.retry_after_s == RETRY_AFTER_S
        assert "sequence gap" in skipped.reason
        # Delivering the gap first unblocks the stream.
        assert router.submit(entries[1], seq=2).accepted
        router.drain()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shards", 0),
            ("queue_capacity", 0),
            ("flush_max_batch", 0),
            ("flush_interval_s", float("nan")),
            ("heartbeat_interval_s", 0.0),
            ("case_timeout_s", 0.0),
            ("hang_timeout_s", -1.0),
            ("max_shard_restarts", -1),
        ],
    )
    def test_out_of_range_config_is_a_value_error(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            ServeConfig(**{field: value})


class TestOverloadOverTheWire:
    def test_burst_converges_through_busy_retries(self, serve_factory):
        trail = list(paper_audit_trail())
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            # queue_capacity 3: entries are refused from a depth of 2.
            config=ServeConfig(shards=1, queue_capacity=3),
            checker_wrapper=_slow(0.02),
        )
        shipper = ResilientAuditClient(
            handle.host,
            handle.port,
            max_attempts=30,
            backoff_s=0.02,
            rng=random.Random(7),
        )
        # One burst, ~10x what the slowed shard absorbs in real time.
        outcome = shipper.ship(trail)
        assert outcome["accepted"] == len(trail)
        # The burst *must* have been pushed back on, and the shipper
        # must have absorbed it invisibly.
        assert outcome["busy_retries"] > 0
        shipper.sync()
        status = shipper.status()
        assert status["entries_received"] == len(trail)
        assert status["backpressure"]["busy"] > 0
        assert status["dead_letters"] == 0
        shipper.bye()
        assert handle.router.wait_idle(timeout=60)
        assert _digests(handle.router) == _batch_digests()
        drained = handle.drain()
        assert drained.store_intact in (True, None)

    def test_xes_document_waits_out_a_full_queue_off_the_loop(
        self, serve_factory
    ):
        gate = threading.Event()
        trail = paper_audit_trail()
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(shards=1, queue_capacity=4),
            checker_wrapper=_held(gate),
        )
        try:
            with AuditStreamClient(handle.host, handle.port) as shipper:
                shipper.recv_until("hello")
                # 28 entries for a held shard whose queue takes 4.
                shipper.send_xes(export_xes(trail))
                deadline = time.monotonic() + 30
                while handle.router.refresh_shard_gauges()["shard-0"][
                    "queue_depth"
                ] < 3:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                # The document is parked on its retries; every other
                # connection is still served.
                with AuditStreamClient(
                    handle.host, handle.port, timeout=5.0
                ) as probe:
                    probe.recv_until("hello")
                    assert probe.status()["entries_received"] < len(trail)
                gate.set()
                assert shipper.sync()["received"] == len(trail)
                assert {v["case"] for v in shipper.verdicts()} == set(
                    trail.cases()
                )
                assert {
                    case: record["digest"]
                    for case, record in shipper.results().items()
                } == _batch_digests()
                status = handle.router.statistics()
                assert status["entries_received"] == len(trail)
                # Refusals are counted as the `entry` op's are.
                assert status["backpressure"]["busy"] > 0
                assert status["dead_letters"] == 0
        finally:
            gate.set()

    def test_sync_on_a_full_queue_waits_off_the_loop(self, serve_factory):
        gate = threading.Event()
        entries = list(paper_audit_trail())[:7]
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(shards=1, queue_capacity=4),
            checker_wrapper=_held(gate),
        )
        try:
            with AuditStreamClient(handle.host, handle.port) as shipper:
                shipper.recv_until("hello")
                shipper.send_entry(entries[0])
                _await_held(handle.router)
                # Three more entries reach the watermark; the last three
                # are refused.  The first sync fills the queue, so the
                # second finds it full.
                shipper.send_trail(entries[1:])
                for token in range(1, 5):
                    shipper.send({"op": "sync", "id": token})
                deadline = time.monotonic() + 30
                while handle.router.refresh_shard_gauges()["shard-0"][
                    "queue_depth"
                ] < 4:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                # The refused barrier waits out its retries; every other
                # connection is still served.
                with AuditStreamClient(
                    handle.host, handle.port, timeout=1.0
                ) as probe:
                    probe.recv_until("hello")
                    assert probe.status()["entries_received"] == 4
                gate.set()
                events: list[dict] = []
                while sum(e["event"] == "synced" for e in events) < 4:
                    events.append(shipper.recv_event())
                refused = [e for e in events if e["event"] == "busy"]
                assert [e["case"] for e in refused] == [
                    entry.case for entry in entries[4:]
                ]
                synced = [e for e in events if e["event"] == "synced"]
                assert [e["id"] for e in synced] == [1, 2, 3, 4]
                assert {e["received"] for e in synced} == {4}
        finally:
            gate.set()

    @pytest.mark.parametrize("capacity", [4, 20])
    def test_refused_entry_has_no_shed_key(self, serve_factory, capacity):
        gate = threading.Event()
        watermark = max(1, capacity * 3 // 4)
        # One entry held by the shard, a watermark's worth queued behind
        # it, and three refused.
        entries = list(paper_audit_trail())[: watermark + 4]
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(shards=1, queue_capacity=capacity),
            checker_wrapper=_held(gate),
        )
        try:
            with AuditStreamClient(handle.host, handle.port) as shipper:
                shipper.recv_until("hello")
                shipper.send_entry(entries[0])
                _await_held(handle.router)
                shipper.send_trail(entries[1:])
                shipper.status()
                refused = [
                    e for e in shipper.events_seen if e["event"] == "busy"
                ]
                assert len(refused) == 3
                for response in refused:
                    assert set(response) == {
                        "event", "case", "reason", "retry_after_s"
                    }
                    assert response["retry_after_s"] == RETRY_AFTER_S
                    assert "busy watermark" in response["reason"]
        finally:
            gate.set()

    def test_duplicate_resends_are_acked_not_reprocessed(
        self, serve_factory
    ):
        trail = list(paper_audit_trail())
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(shards=2, queue_capacity=256),
        )
        shipper = ResilientAuditClient(
            handle.host, handle.port, rng=random.Random(3)
        )
        shipper.ship(trail)
        # A shipper that lost its ack state re-ships everything.
        second = ResilientAuditClient(
            handle.host, handle.port, rng=random.Random(4)
        )
        outcome = second.ship(trail)
        assert outcome["duplicates"] == len(trail)
        shipper.bye()
        second.bye()
        assert handle.router.wait_idle(timeout=60)
        status = handle.router.statistics()
        assert status["entries_received"] == len(trail)
        assert status["backpressure"]["duplicates"] == len(trail)
        assert _digests(handle.router) == _batch_digests()
        handle.drain()
