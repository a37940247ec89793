"""Unit tests for the serve layer's wire protocol."""

from datetime import datetime

import pytest

from repro.audit.model import LogEntry, Status
from repro.policy.model import ObjectRef
from repro.serve import (
    ProtocolError,
    decode_message,
    encode_message,
    entry_from_message,
    entry_to_message,
)


def _entry(**overrides) -> LogEntry:
    values = dict(
        user="Mary",
        role="GP",
        action="execute",
        obj=ObjectRef.parse("/hospital/patients/Pietro"),
        task="T01",
        case="HT-1",
        timestamp=datetime(2010, 3, 1, 10, 5),
        status=Status.SUCCESS,
    )
    values.update(overrides)
    return LogEntry(**values)


class TestWireProtocol:
    def test_entry_round_trips(self):
        entry = _entry()
        message = decode_message(encode_message(entry_to_message(entry)))
        assert entry_from_message(message) == entry

    def test_entry_without_object_round_trips(self):
        entry = _entry(obj=None)
        assert entry_from_message(entry_to_message(entry)) == entry

    def test_paper_timestamp_format_is_accepted(self):
        message = entry_to_message(_entry())
        message["ts"] = "201003011005"
        assert entry_from_message(message).timestamp == datetime(
            2010, 3, 1, 10, 5
        )

    def test_failure_status(self):
        message = entry_to_message(_entry(status=Status.FAILURE))
        assert entry_from_message(message).status is Status.FAILURE

    def test_missing_fields_are_named(self):
        message = entry_to_message(_entry())
        del message["task"]
        message["case"] = ""
        with pytest.raises(ProtocolError, match="task, case"):
            entry_from_message(message)

    @pytest.mark.parametrize(
        "line",
        [b"\xff\xfe garbage", b"not json", b"[1, 2, 3]", b'"just a string"'],
    )
    def test_junk_lines_raise_protocol_error(self, line):
        with pytest.raises(ProtocolError):
            decode_message(line)

    def test_bad_timestamp_raises(self):
        message = entry_to_message(_entry())
        message["ts"] = "yesterday-ish"
        with pytest.raises(ProtocolError, match="yesterday-ish"):
            entry_from_message(message)

    def test_bad_status_raises(self):
        message = entry_to_message(_entry())
        message["status"] = "maybe"
        with pytest.raises(ProtocolError, match="maybe"):
            entry_from_message(message)
