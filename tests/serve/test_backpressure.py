"""Backpressure, busy refusals, and client retry.

Overload degrades without losing or double-counting anything: the
daemon replays each entry before it reads the connection's next line,
so a client sending faster than the replay is held back by its own
socket, and ``busy``/``retry_after`` is left for an entry that must be
sent again (a sequence gap, a dead store writer).  A well-behaved
shipper (:class:`~repro.serve.client.ResilientAuditClient`) converges
to the exact uninterrupted verdicts.
"""

import random

import pytest

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
from repro.serve.core import RETRY_AFTER_S
from repro.serve.protocol import entry_to_message
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


def _router() -> ShardRouter:
    router = ShardRouter(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(),
        checker_wrapper=_slow(0.02),
    )
    router.start()
    return router


class TestAdmissionControl:
    def test_sequence_gap_is_refused_not_fatal(self):
        trail = list(paper_audit_trail())
        case = trail[0].case
        entries = [e for e in trail if e.case == case]
        assert len(entries) >= 2
        router = _router()
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
            ("flush_max_batch", 0),
            ("flush_interval_s", float("nan")),
            ("case_timeout_s", 0.0),
        ],
    )
    def test_out_of_range_config_is_a_value_error(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            ServeConfig(**{field: value})


class TestOverloadOverTheWire:
    def test_burst_loses_nothing_and_double_counts_nothing(
        self, serve_factory
    ):
        trail = list(paper_audit_trail())
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(),
            checker_wrapper=_slow(0.02),
        )
        shipper = ResilientAuditClient(
            handle.host,
            handle.port,
            max_attempts=30,
            backoff_s=0.02,
            rng=random.Random(7),
        )
        # One burst, ~10x what the slowed replay absorbs in real time:
        # the socket holds it back, and nothing is refused.
        outcome = shipper.ship(trail)
        assert outcome["accepted"] == len(trail)
        assert outcome["busy_retries"] == 0
        shipper.sync()
        status = shipper.status()
        assert status["entries_received"] == len(trail)
        assert status["backpressure"]["busy"] == 0
        assert status["dead_letters"] == 0
        shipper.bye()
        assert _digests(handle.router) == _batch_digests()
        drained = handle.drain()
        assert drained.store_intact in (True, None)

    def test_refused_entry_has_no_shed_key(self, serve_factory):
        trail = list(paper_audit_trail())
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(),
        )
        with AuditStreamClient(handle.host, handle.port) as shipper:
            shipper.recv_until("hello")
            # seq 2 before seq 1: a gap, refused busy.
            shipper.send(entry_to_message(trail[1], seq=2))
            refused = shipper.recv_until("busy")
        assert set(refused) == {
            "event", "case", "reason", "retry_after_s", "seq"
        }
        assert refused["seq"] == 2
        assert refused["retry_after_s"] == RETRY_AFTER_S
        assert "sequence gap" in refused["reason"]

    def test_duplicate_resends_are_acked_not_reprocessed(
        self, serve_factory
    ):
        trail = list(paper_audit_trail())
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(),
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
        status = handle.router.statistics()
        assert status["entries_received"] == len(trail)
        assert status["backpressure"]["duplicates"] == len(trail)
        assert _digests(handle.router) == _batch_digests()
        handle.drain()
