"""Bounded queues, busy/shed admission control, and client retry.

Overload must degrade explicitly: the library path blocks (TCP
push-back), the service path refuses with ``busy``/``retry_after``
below capacity and sheds above it, and a well-behaved shipper
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
    ResilientAuditClient,
    ServeConfig,
    ShardRouter,
)
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
        router = _router(busy_watermark=2, shed_watermark=3)
        pending = deque(trail)
        busy_seen = 0
        while pending:
            entry = pending.popleft()
            admission = router.submit(entry, block=False)
            if admission.accepted:
                continue
            assert admission.busy
            assert admission.retry_after_s > 0
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
        assert stats["busy_watermark"] == 2
        router.drain()

    def test_shed_watermark_refuses_above_busy(self):
        trail = list(paper_audit_trail())
        router = _router(
            queue_capacity=8, busy_watermark=2, shed_watermark=4
        )
        # Blocking submitters (the library path) are allowed past the
        # watermarks; use them to pile the queue above the shed line...
        for entry in trail[:6]:
            router.submit(entry, block=True)
        # ...so the service path's next entry is shed outright.
        admission = router.submit(trail[6], block=False)
        assert not admission.accepted
        assert admission.shed and admission.busy
        assert router.statistics()["backpressure"]["shed"] >= 1
        assert router.wait_idle(timeout=60)
        router.drain()

    def test_blocking_submit_never_refuses(self):
        trail = list(paper_audit_trail())
        router = _router(busy_watermark=1, shed_watermark=2)
        for entry in trail:
            assert router.submit(entry, block=True).accepted
        assert router.wait_idle(timeout=60)
        assert _digests(router) == _batch_digests()
        stats = router.statistics()["backpressure"]
        assert stats["busy"] == 0 and stats["shed"] == 0
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
        assert skipped.busy and not skipped.shed
        assert "sequence gap" in skipped.reason
        # Delivering the gap first unblocks the stream.
        assert router.submit(entries[1], seq=2).accepted
        router.drain()

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            ShardRouter(
                process_registry(),
                config=ServeConfig(
                    shards=1,
                    queue_capacity=4,
                    busy_watermark=3,
                    shed_watermark=2,
                ),
            )

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
            ("retry_after_s", -0.05),
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
            config=ServeConfig(
                shards=1,
                queue_capacity=3,
                busy_watermark=1,
                shed_watermark=3,
                retry_after_s=0.02,
            ),
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
            config=ServeConfig(shards=1, queue_capacity=4, retry_after_s=0.01),
            checker_wrapper=lambda checker, purpose: _HeldChecker(checker, gate),
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
                refused = status["backpressure"]
                assert refused["busy"] + refused["shed"] > 0
                assert status["dead_letters"] == 0
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
