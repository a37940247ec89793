"""Torn/truncated JSON-lines tolerance and the idempotence ``seq`` field.

A crash mid-write (the shipper's or the daemon's) leaves a partial
trailing line.  The service must answer every complete line before it,
drop a torn trailing request line silently instead of dead-lettering
it, and numbered entries must round-trip so re-sends dedupe.
"""

import json
import socket

import pytest

from repro.scenarios import paper_audit_trail
from repro.serve import AuditStreamClient, ServeConfig
from repro.serve.protocol import (
    ProtocolError,
    encode_message,
    entry_from_message,
    entry_seq,
    entry_to_message,
)


class TestEntrySeq:
    def test_roundtrip(self):
        entry = list(paper_audit_trail())[0]
        message = entry_to_message(entry, seq=7)
        assert message["seq"] == 7
        assert entry_seq(message) == 7
        assert entry_from_message(message) == entry

    def test_absent_means_unnumbered(self):
        entry = list(paper_audit_trail())[0]
        assert entry_seq(entry_to_message(entry)) is None

    @pytest.mark.parametrize("bad", [0, -3, "1", 1.5, True, [1]])
    def test_junk_seq_rejected(self, bad):
        with pytest.raises(ProtocolError):
            entry_seq({"seq": bad})


class TestServiceTornTail:
    def test_torn_trailing_request_line_is_dropped_silently(
        self, serve_factory
    ):
        from repro.scenarios import process_registry, role_hierarchy

        trail = list(paper_audit_trail())
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(),
        )
        client = AuditStreamClient(handle.host, handle.port)
        client.recv_until("hello")
        client.send_trail(trail[:3])
        client.sync()
        # A torn final line: bytes flushed without the newline, then the
        # connection dies (exactly what a killed shipper leaves behind).
        payload = encode_message(entry_to_message(trail[3]))[:-10]
        client._file.write(payload)
        client._file.flush()
        client.abort()

        # The service must treat it as truncation, not a protocol error.
        second = AuditStreamClient(handle.host, handle.port)
        second.recv_until("hello")
        second.sync()
        status = second.status()
        assert status["entries_received"] == 3
        assert status["dead_letters"] == 0
        second.bye()
        handle.drain()

    def test_a_half_close_answers_every_line_and_drops_the_torn_tail(
        self, serve_factory
    ):
        """The peer shuts its sending side after a torn line: every
        complete line before it is answered, then the daemon closes."""
        from repro.scenarios import process_registry, role_hierarchy

        trail = list(paper_audit_trail())
        handle = serve_factory(
            process_registry(), hierarchy=role_hierarchy(), config=ServeConfig()
        )
        sock = socket.create_connection((handle.host, handle.port), timeout=30)
        sock.sendall(
            b"".join(encode_message(entry_to_message(e)) for e in trail[:3])
            + b'{"op":"sync","id":1}\n'
            + encode_message(entry_to_message(trail[3]))[:-10]
        )
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := sock.recv(1 << 16):
            received += chunk
        sock.close()
        events = [json.loads(line) for line in received.splitlines()]
        assert events[0]["event"] == "hello"
        assert events[-1] == {"event": "synced", "id": 1, "received": 3}
        status = handle.router.statistics()
        assert status["entries_received"] == 3
        assert status["dead_letters"] == 0
