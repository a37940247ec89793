"""Torn/truncated JSON-lines tolerance and the idempotence ``seq`` field.

A crash mid-write (the shipper's or the daemon's) leaves a partial
trailing line.  The protocol layer must salvage every complete line
before it (``decode_jsonl``), the service must drop a torn trailing
request line silently instead of dead-lettering it, and numbered
entries must round-trip so re-sends dedupe.
"""

import pytest

from repro.scenarios import paper_audit_trail
from repro.serve import AuditStreamClient, ServeConfig
from repro.serve.protocol import (
    ProtocolError,
    decode_jsonl,
    encode_message,
    entry_from_message,
    entry_seq,
    entry_to_message,
)


class TestDecodeJsonl:
    def test_clean_buffer_decodes_fully(self):
        data = b'{"a":1}\n{"b":2}\n'
        messages, torn = decode_jsonl(data)
        assert messages == [{"a": 1}, {"b": 2}]
        assert not torn

    def test_torn_trailing_line_is_tolerated(self):
        data = b'{"a":1}\n{"b":2}\n{"c":'  # cut mid-write
        messages, torn = decode_jsonl(data)
        assert messages == [{"a": 1}, {"b": 2}]
        assert torn

    def test_torn_trailing_line_raises_when_strict(self):
        with pytest.raises(ProtocolError):
            decode_jsonl(b'{"a":1}\n{"b":', tolerant=False)

    def test_junk_mid_buffer_is_corruption_not_truncation(self):
        # The bad line is *followed* by a good one: that is not a torn
        # tail, and silently skipping it would hide real corruption.
        with pytest.raises(ProtocolError):
            decode_jsonl(b'{"a":1}\nnot json\n{"b":2}\n')

    def test_complete_final_line_of_non_object_raises(self):
        # A newline-terminated array is a protocol violation, not a tear.
        with pytest.raises(ProtocolError):
            decode_jsonl(b'{"a":1}\n[1,2]\n')

    def test_torn_multibyte_utf8_tail(self):
        clean = encode_message({"case": "ACME-1", "note": "café"})
        torn = clean + encode_message({"note": "naïve"})[:-4]
        messages, was_torn = decode_jsonl(torn)
        assert messages[0]["note"] == "café"
        assert was_torn

    def test_empty_and_blank_buffers(self):
        assert decode_jsonl(b"") == ([], False)
        assert decode_jsonl(b"\n\n  \n") == ([], False)

    def test_wal_style_roundtrip_through_entries(self):
        entries = list(paper_audit_trail())[:5]
        buffer = b"".join(
            encode_message(entry_to_message(e)) for e in entries
        )
        # Tear the final record mid-line.
        torn = buffer[:-9]
        messages, was_torn = decode_jsonl(torn)
        assert was_torn
        assert [entry_from_message(m) for m in messages] == entries[:4]


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
