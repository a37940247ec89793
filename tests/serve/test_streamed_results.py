"""The streamed ``results`` reply and the drain-time ``final`` events.

The daemon writes the ``results`` reply chunk by chunk while it builds
the records, so its memory holds one chunk, not the whole reply.  These
tests pin what must not change with that: the bytes on the wire, the
snapshot the reply describes, the line framing around it, and which
cases a drain builds ``final`` records for.
"""

from __future__ import annotations

import hashlib
import json
import socket
import struct
import time
import tracemalloc
from dataclasses import replace

import pytest

import repro.serve.service as serve_service
import repro.testing.differential as differential
from repro.scenarios import (
    hospital_day,
    paper_audit_trail,
    process_registry,
    role_hierarchy,
)
from repro.serve import AuditStreamClient, ServeConfig
from repro.serve.protocol import (
    RESULTS_CHUNK,
    encode_message,
    encode_results,
    entry_to_message,
)
from repro.testing import canonical_digest


def _boot(serve_factory):
    return serve_factory(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(compiled=True),
    )


def _ingest(running, entries) -> None:
    """Feed entries straight to the router (no client sees verdicts)."""
    for entry in entries:
        assert running.router.submit(entry).accepted


class _RawClient:
    """A bare socket speaking JSON lines, for byte-level assertions."""

    def __init__(self, running):
        self.sock = socket.create_connection(
            (running.host, running.port), timeout=30
        )
        self._buffer = b""
        assert json.loads(self.line())["event"] == "hello"

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def line(self) -> bytes:
        while b"\n" not in self._buffer:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line + b"\n"

    def close(self) -> None:
        self.sock.close()


def _expected(router, wanted=None) -> bytes:
    full = router.results()
    if wanted is not None:
        full = {
            case: full[case]
            for case in wanted
            if isinstance(case, str) and case in full
        }
    return encode_message({"event": "results", "cases": full})


@pytest.fixture
def busy_service(serve_factory):
    """A daemon holding more cases than one reply chunk."""
    running = _boot(serve_factory)
    _ingest(running, hospital_day(n_cases=3 * RESULTS_CHUNK, seed=17).trail)
    return running


class TestByteIdentity:
    def test_encoder_matches_encode_message(self):
        records = [
            {"case": f"C-{i}", "state": "open", "digest": f'"é{i}',
             "failure_kind": None}
            for i in range(2 * RESULTS_CHUNK + 1)
        ]
        for n in (0, 1, RESULTS_CHUNK, RESULTS_CHUNK + 1, len(records)):
            chunks = list(encode_results(iter(records[:n])))
            assert len(chunks) == n // RESULTS_CHUNK + 1
            assert b"".join(chunks) == encode_message(
                {
                    "event": "results",
                    "cases": {r["case"]: r for r in records[:n]},
                }
            )

    def test_full_reply(self, busy_service):
        client = _RawClient(busy_service)
        try:
            client.send(b'{"op":"results"}\n')
            line = client.line()
        finally:
            client.close()
        assert len(busy_service.router.results()) > 2 * RESULTS_CHUNK
        assert line == _expected(busy_service.router)

    @pytest.mark.parametrize(
        "wanted",
        [
            ["HT-2", "HT-1", "HT-2", "nope", "HT-1"],
            ["nope", "also-nope"],
            [],
            ["HT-3", 7, None, "HT-3"],
        ],
        ids=["duplicates", "unknown", "empty", "non-string"],
    )
    def test_filtered_reply(self, busy_service, wanted):
        client = _RawClient(busy_service)
        try:
            client.send(encode_message({"op": "results", "cases": wanted}))
            line = client.line()
        finally:
            client.close()
        assert line == _expected(busy_service.router, wanted)

    def test_filter_spanning_chunks(self, busy_service):
        every = list(busy_service.router.results())
        wanted = every[::-1] + every[:5]
        client = _RawClient(busy_service)
        try:
            client.send(encode_message({"op": "results", "cases": wanted}))
            line = client.line()
        finally:
            client.close()
        assert line == _expected(busy_service.router, wanted)
        assert list(json.loads(line)["cases"]) == every[::-1]


class TestSnapshot:
    def test_entries_after_results_are_not_in_the_reply(self, serve_factory):
        running = _boot(serve_factory)
        entries = list(hospital_day(n_cases=2 * RESULTS_CHUNK, seed=3).trail)
        later = [replace(e, case="LATE-" + e.case) for e in paper_audit_trail()]
        with AuditStreamClient(running.host, running.port) as client:
            client.recv_until("hello")
            client.send_trail(entries)
            # One write: results, then entries the reply must not cover.
            client.send_raw(
                b'{"op":"results"}\n'
                + b"".join(encode_message(entry_to_message(e)) for e in later)
            )
            reply = client.recv_until("results")["cases"]
            assert set(reply) == {e.case for e in entries}
            assert client.sync()["received"] == len(entries) + len(later)
            after = client.results()
        assert set(after) == {e.case for e in entries + later}

    def test_events_posted_during_the_reply_queue_behind_it(
        self, busy_service, monkeypatch
    ):
        """A verdict sent while the reply streams never splits it."""
        service = busy_service.service
        router = busy_service.router
        original = router.iter_results

        def noisy(*args, **kwargs):
            (conn,) = service._connections
            for record in original(*args, **kwargs):
                conn.send({"event": "verdict", "case": record["case"]})
                yield record

        expected = _expected(router)
        cases = len(router.results())
        monkeypatch.setattr(router, "iter_results", noisy)
        client = _RawClient(busy_service)
        try:
            client.send(b'{"op":"results"}\n{"op":"sync","id":1}\n')
            lines = []
            while not lines or json.loads(lines[-1])["event"] != "synced":
                lines.append(client.line())
        finally:
            client.close()
        events = [json.loads(line)["event"] for line in lines]
        assert events[0] == "results"
        assert lines[0] == expected
        assert events.count("verdict") == cases
        assert events[-1] == "synced"


    def test_a_peer_dying_mid_reply_releases_the_reader(
        self, busy_service, monkeypatch
    ):
        """The reader waits for the reply; a reset connection must not
        leave it waiting (nor stop the daemon answering others)."""
        service = busy_service.service
        built = []

        def counted(records):
            for chunk in encode_results(records):
                built.append(chunk)
                yield chunk

        monkeypatch.setattr(serve_service, "encode_results", counted)
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect((busy_service.host, busy_service.port))
        sock.sendall(b'{"op":"results"}\n')
        assert sock.recv(1024)  # hello, and the reply is under way
        # Close with a reset while the daemon is still writing.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        deadline = time.monotonic() + 10
        while service._connections and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not service._connections
        # The reset came mid-reply: the last of its chunks was never built.
        assert len(built) <= len(busy_service.router.results()) // RESULTS_CHUNK
        client = _RawClient(busy_service)
        try:
            client.send(encode_message({"op": "results", "cases": ["HT-1"]}))
            line = client.line()
        finally:
            client.close()
        assert line == _expected(busy_service.router, ["HT-1"])


class TestBoundedMemory:
    def test_reply_peak_stays_below_the_reply(self, serve_factory):
        """A 2,000-case reply to a reader that hashes and discards what
        it receives: the traced peak while the daemon builds and writes
        the reply stays below the reply's own size."""
        running = _boot(serve_factory)
        _ingest(running, hospital_day(n_cases=2000, seed=5).trail)
        client = _RawClient(running)
        received = hashlib.sha256()
        size = 0
        tracemalloc.start()
        try:
            client.send(b'{"op":"results"}\n')
            while True:
                chunk = client.sock.recv(1 << 16)
                assert chunk, "connection closed mid-reply"
                received.update(chunk)
                size += len(chunk)
                if chunk.endswith(b"\n"):
                    break
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            client.close()
        expected = _expected(running.router)
        assert size == len(expected)
        assert received.digest() == hashlib.sha256(expected).digest()
        assert len(running.router.results()) == 2000
        assert peak < size, (peak, size)


class TestDrainFinals:
    def test_no_client_builds_no_digest(self, serve_factory, monkeypatch):
        running = _boot(serve_factory)
        _ingest(running, paper_audit_trail())
        calls = []

        def counting(result):
            calls.append(result)
            return canonical_digest(result)

        monkeypatch.setattr(differential, "canonical_digest", counting)
        running.drain()
        assert calls == []

    def test_connected_client_gets_its_cases_finals(self, serve_factory):
        running = _boot(serve_factory)
        trail = list(paper_audit_trail())
        mine = [e for e in trail if e.case != "HT-1"]
        _ingest(running, [e for e in trail if e.case == "HT-1"])
        with AuditStreamClient(running.host, running.port) as client:
            client.recv_until("hello")
            client.send_trail(mine)
            client.sync()
            running.drain()
            finals = []
            while True:
                event = client.recv_event()
                assert event is not None
                if event["event"] == "bye":
                    break
                if event["event"] == "final":
                    finals.append(event)
        results = running.router.results()
        assert finals == [
            {"event": "final", **results[case]}
            for case in sorted({e.case for e in mine})
            if case in results
        ]
        assert "HT-1" not in {final["case"] for final in finals}
