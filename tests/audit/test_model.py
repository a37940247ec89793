"""Tests for log entries and audit trails (Definitions 4-5)."""

from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest

from repro.audit import (
    AuditTrail,
    LogEntry,
    Status,
    format_timestamp,
    parse_timestamp,
)
from repro.audit.model import TEXT_FIELDS
from repro.errors import MalformedEntryError, TrailOrderError
from repro.policy import ObjectRef


def entry(task="T01", case="HT-1", ts="201003121210", status=Status.SUCCESS, **kw):
    defaults = dict(
        user="John", role="GP", action="read", obj="[Jane]EPR/Clinical"
    )
    defaults.update(kw)
    return LogEntry.at(
        defaults["user"], defaults["role"], defaults["action"],
        defaults["obj"], task, case, ts, status,
    )


class TestTimestamps:
    def test_paper_format_round_trip(self):
        when = parse_timestamp("201003121210")
        assert when == datetime(2010, 3, 12, 12, 10)
        assert format_timestamp(when) == "201003121210"

    def test_invalid_format_rejected(self):
        with pytest.raises(ValueError):
            parse_timestamp("2010-03-12")


class TestLogEntry:
    def test_status_helpers(self):
        assert entry().succeeded
        assert entry(status=Status.FAILURE).failed

    def test_objectless_entry(self):
        cancel = entry(obj=None, status=Status.FAILURE, action="cancel")
        assert cancel.obj is None
        assert "N/A" in str(cancel)

    def test_as_access_request(self):
        request = entry().as_access_request()
        assert request is not None
        assert request.user == "John"
        assert request.task == "T01"
        assert request.case == "HT-1"
        assert request.obj == ObjectRef.parse("[Jane]EPR/Clinical")

    def test_objectless_entry_has_no_access_request(self):
        assert entry(obj=None).as_access_request() is None

    def test_shifted(self):
        moved = entry().shifted(timedelta(hours=2))
        assert moved.timestamp == entry().timestamp + timedelta(hours=2)
        assert moved.task == entry().task

    def test_an_aware_timestamp_is_kept_in_naive_utc(self):
        plus_two = timezone(timedelta(hours=2))
        built = replace(
            entry(), timestamp=datetime(2010, 3, 12, 14, 10, tzinfo=plus_two)
        )
        assert built.timestamp == datetime(2010, 3, 12, 12, 10)
        assert built.timestamp.tzinfo is None
        assert built == entry()
        assert str(built) == str(entry())

    @pytest.mark.parametrize("field", TEXT_FIELDS)
    def test_text_utf8_cannot_encode_is_refused_at_construction(self, field):
        with pytest.raises(MalformedEntryError, match=f"entry {field} .*UTF-8"):
            replace(entry(), **{field: "Mallory\ud800"})
        # A surrogate pair is one character, and any text UTF-8 encodes
        # is kept as it is; so is an empty field.
        for text in ("\U0001F600 Zoë", ""):
            assert getattr(replace(entry(), **{field: text}), field) == text

    def test_str_matches_figure_layout(self):
        text = str(entry())
        assert text.startswith("John GP read [Jane]EPR/Clinical T01 HT-1 ")
        assert text.endswith("201003121210 success")


class TestAuditTrailOrdering:
    def test_constructor_sorts_by_timestamp(self):
        late = entry(ts="201003121220")
        early = entry(ts="201003121210")
        trail = AuditTrail([late, early])
        assert trail[0] is early
        assert trail[1] is late

    def test_ties_keep_input_order(self):
        first = entry(task="T02", ts="201004151210")
        second = entry(task="T03", ts="201004151210")
        trail = AuditTrail([first, second])
        assert [e.task for e in trail] == ["T02", "T03"]

    def test_strict_mode_rejects_out_of_order(self):
        with pytest.raises(TrailOrderError):
            AuditTrail(
                [entry(ts="201003121220"), entry(ts="201003121210")],
                strict=True,
            )

    def test_strict_mode_accepts_ordered(self):
        trail = AuditTrail(
            [entry(ts="201003121210"), entry(ts="201003121220")], strict=True
        )
        assert len(trail) == 2


class TestProjections:
    @pytest.fixture
    def trail(self):
        return AuditTrail(
            [
                entry(task="T01", case="HT-1", ts="201003121210"),
                entry(task="T06", case="HT-2", ts="201003121211", user="Bob", role="Cardiologist"),
                entry(task="T02", case="HT-1", ts="201003121212"),
                entry(
                    task="T91",
                    case="CT-1",
                    ts="201003121213",
                    user="Bob",
                    role="Cardiologist",
                    obj="ClinicalTrial/Criteria",
                    action="write",
                ),
            ]
        )

    def test_for_case(self, trail):
        sub = trail.for_case("HT-1")
        assert [e.task for e in sub] == ["T01", "T02"]

    def test_for_user(self, trail):
        assert len(trail.for_user("Bob")) == 2

    def test_cases_in_first_appearance_order(self, trail):
        assert trail.cases() == ["HT-1", "HT-2", "CT-1"]

    def test_touching_subtree(self, trail):
        jane = ObjectRef.parse("[Jane]EPR")
        assert len(trail.touching(jane)) == 3

    def test_cases_touching(self, trail):
        jane = ObjectRef.parse("[Jane]EPR")
        assert trail.cases_touching(jane) == ["HT-1", "HT-2"]

    def test_filtered(self, trail):
        writes = trail.filtered(lambda e: e.action == "write")
        assert len(writes) == 1

    def test_task_sequence(self, trail):
        assert trail.task_sequence()[0] == ("GP", "T01", Status.SUCCESS)

    def test_merged_with(self, trail):
        merged = trail.merged_with(AuditTrail([entry(ts="201003121209")]))
        assert len(merged) == 5
        assert merged[0].timestamp == parse_timestamp("201003121209")

    def test_span(self, trail):
        start, end = trail.span()
        assert start == parse_timestamp("201003121210")
        assert end == parse_timestamp("201003121213")

    def test_empty_trail_span(self):
        assert AuditTrail([]).span() is None

    def test_equality(self, trail):
        assert trail == AuditTrail(trail.entries)
        assert trail != AuditTrail([])
