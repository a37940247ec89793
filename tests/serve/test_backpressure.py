"""Backpressure, busy refusals, and client retry.

Overload degrades without losing or double-counting anything: the
daemon replays each entry before it reads the connection's next line,
so a client sending faster than the replay is held back by its own
socket, and ``busy``/``retry_after`` is left for an entry that must be
sent again (a sequence gap, a dead store writer).  A well-behaved
shipper (:class:`~repro.serve.client.ResilientAuditClient`) converges
to the exact uninterrupted verdicts.  The other direction holds too: a
client that does not read its replies is not read either, so the
daemon's write buffer for it stays bounded.
"""

import asyncio
import json
import random
import socket
import threading
import time

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
import repro.serve.service as serve_service
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


def _wait_until_not_read(service) -> None:
    """Wait until the daemon stops reading a client whose replies fill
    its write buffer."""
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline and not any(
        client._paused for client in list(service._connections)
    ):
        time.sleep(0.01)


class TestRepliesPushBack:
    """50,000 ``status`` lines from a client that does not read."""

    BLOCKS, PER_BLOCK = 50, 1_000

    def _request(self) -> bytes:
        # Each block: PER_BLOCK status lines, then a numbered sync, so
        # the reader can check that the replies come back in order.
        block = b'{"op":"status"}\n' * self.PER_BLOCK
        return b"".join(
            block + b'{"op":"sync","id":%d}\n' % number
            for number in range(self.BLOCKS)
        )

    def test_the_daemon_buffers_little_and_serves_others(self, serve_factory):
        handle = serve_factory(
            process_registry(), hierarchy=role_hierarchy(), config=ServeConfig()
        )
        service = handle.service
        peak = [0]
        sampling = threading.Event()
        sampling.set()

        async def sample() -> None:
            # On the loop's own thread, so no buffer is read mid-write.
            while sampling.is_set():
                for client in list(service._connections):
                    size = client._transport.get_write_buffer_size()
                    peak[0] = max(peak[0], size)
                await asyncio.sleep(0.002)

        sampler = asyncio.run_coroutine_threadsafe(sample(), handle._loop)
        silent = socket.create_connection((handle.host, handle.port), timeout=30)
        sender = threading.Thread(target=silent.sendall, args=(self._request(),))
        sender.start()
        try:
            _wait_until_not_read(service)
            time.sleep(0.5)  # time enough to buffer more, if it would
            assert 0 < peak[0] < 1 << 20, peak[0]

            # Another client is served meanwhile.
            with AuditStreamClient(handle.host, handle.port) as other:
                other.recv_until("hello")
                assert other.status()["entries_received"] == 0

            # Once the silent client reads, every reply arrives, in order.
            reader = silent.makefile("rb")
            assert json.loads(reader.readline())["event"] == "hello"
            for number in range(self.BLOCKS):
                for _ in range(self.PER_BLOCK):
                    assert json.loads(reader.readline())["event"] == "status"
                synced = json.loads(reader.readline())
                assert (synced["event"], synced["id"]) == ("synced", number)
            sender.join(timeout=30)
            assert not sender.is_alive()
            assert peak[0] < 1 << 20, peak[0]
        finally:
            sampling.clear()
            sampler.result(timeout=10)
            silent.close()

    def test_drain_aborts_a_client_that_never_reads(
        self, serve_factory, monkeypatch
    ):
        """Its finals cannot be written: drain waits its bound, aborts
        the connection, and finishes; a reading client gets its bye."""
        monkeypatch.setattr(serve_service, "DRAIN_CLOSE_S", 0.5)
        handle = serve_factory(
            process_registry(), hierarchy=role_hierarchy(), config=ServeConfig()
        )
        silent = socket.create_connection((handle.host, handle.port), timeout=30)

        def send() -> None:
            try:
                silent.sendall(self._request())
            except OSError:
                pass  # the abort resets the connection

        sender = threading.Thread(target=send)
        sender.start()
        try:
            with AuditStreamClient(handle.host, handle.port) as reader:
                reader.recv_until("hello")
                _wait_until_not_read(handle.service)
                started = time.monotonic()
                report = handle.drain()
                assert time.monotonic() - started < 10
                assert reader.recv_until("bye")["reason"] == "drained"
            assert not handle.service._connections
            assert report.entries_received == 0
        finally:
            silent.close()
            sender.join(timeout=30)
