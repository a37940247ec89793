"""Unit tests for the serve layer's wire protocol."""

import sys
from datetime import datetime

import pytest

from repro.audit.model import LogEntry, Status
from repro.errors import MalformedEntryError
from repro.policy.model import ObjectRef
from repro.serve import (
    ProtocolError,
    decode_message,
    encode_message,
    entry_from_message,
    entry_to_message,
)
from repro.serve.protocol import MAX_NESTING


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
        with pytest.raises(MalformedEntryError, match="task, case"):
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


class TestRequestBounds:
    """What a line must be beyond JSON: shallow, and Unicode UTF-8 holds."""

    @staticmethod
    def _nested(depth: int) -> bytes:
        """An entry op whose unknown key nests it *depth* levels deep."""
        line = encode_message(entry_to_message(_entry())).rstrip(b"}\n")
        inner = b"[" * (depth - 1) + b"]" * (depth - 1)
        return line + b',"pad":' + inner + b"}"

    def test_nesting_up_to_the_bound_decodes(self):
        message = decode_message(self._nested(MAX_NESTING))
        assert entry_from_message(message) == _entry()

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 900, 50_000])
    def test_deeper_nesting_is_a_protocol_error(self, depth):
        with pytest.raises(ProtocolError, match="nests deeper"):
            decode_message(self._nested(depth))

    def test_brackets_inside_text_do_not_count(self):
        line = encode_message({"op": "status", "pad": "[{" * MAX_NESTING})
        assert decode_message(line)["op"] == "status"

    @pytest.mark.parametrize(
        "escape", [b"\\ud800", b"\\uDFFF", b"x\\ud83dy", b"\\ude00\\ud83d"]
    )
    def test_a_lone_surrogate_escape_is_a_protocol_error(self, escape):
        line = b'{"op": "entry", "user": "' + escape + b'"}'
        with pytest.raises(ProtocolError, match="surrogate"):
            decode_message(line)
        with pytest.raises(ProtocolError, match="surrogate"):
            decode_message(line.decode("ascii"))

    def test_a_surrogate_pair_is_one_character(self):
        message = decode_message(b'{"op": "entry", "user": "\\ud83d\\ude00"}')
        assert message["user"] == "\U0001F600"

    def test_an_integer_past_the_digit_limit_is_a_protocol_error(self):
        # The refusal is a ValueError that is no JSONDecodeError.
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not digits:
            pytest.skip("this interpreter has no integer digit limit")
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_message(
                b'{"op": "entry", "seq": ' + b"9" * (digits + 1) + b"}"
            )
