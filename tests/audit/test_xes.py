"""Tests for XES import/export."""

import dataclasses
import gc
import io
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from repro.audit import AuditTrail
from repro.audit.xes import _CHUNK_SIZE, XesError, export_xes, import_xes
from repro.bpmn import encode
from repro.core import ComplianceChecker
from repro.core.resilience import Quarantine
from repro.scenarios import (
    healthcare_treatment_process,
    hospital_day,
    paper_audit_trail,
    role_hierarchy,
)
from tests.properties.test_xes_import_equivalence import ShortReads


class TestRoundTrip:
    def test_paper_trail_round_trips(self):
        original = paper_audit_trail()
        rebuilt = import_xes(export_xes(original))
        assert len(rebuilt) == len(original)
        assert rebuilt.cases() == original.cases()
        for left, right in zip(original, rebuilt):
            assert (left.user, left.role, left.action) == (
                right.user, right.role, right.action,
            )
            assert left.obj == right.obj
            assert (left.task, left.case) == (right.task, right.case)
            assert left.timestamp == right.timestamp
            assert left.status == right.status

    def test_imported_trail_replays_identically(self):
        checker = ComplianceChecker(
            encode(healthcare_treatment_process()), role_hierarchy()
        )
        rebuilt = import_xes(export_xes(paper_audit_trail()))
        assert checker.check(rebuilt.for_case("HT-1")).compliant
        assert not checker.check(rebuilt.for_case("HT-11")).compliant

    def test_empty_trail(self):
        assert len(import_xes(export_xes(AuditTrail([])))) == 0


class TestDocumentShape:
    def test_one_trace_per_case(self):
        document = export_xes(paper_audit_trail())
        assert document.count("<trace>") == len(paper_audit_trail().cases())

    def test_xml_declaration_present(self):
        assert export_xes(paper_audit_trail()).startswith("<?xml")

    def test_objectless_entries_have_no_object_attribute(self):
        document = export_xes(paper_audit_trail())
        # the one cancel entry exports without purpose:object
        rebuilt = import_xes(document)
        cancels = [e for e in rebuilt if e.action == "cancel"]
        assert len(cancels) == 1
        assert cancels[0].obj is None


class TestPlainXesImport:
    """Task-level XES without the purpose extension still imports."""

    PLAIN = """<?xml version='1.0'?>
    <log xes.version="1.0">
      <trace>
        <string key="concept:name" value="HT-5"/>
        <event>
          <string key="concept:name" value="T01"/>
          <string key="org:resource" value="John"/>
          <string key="org:role" value="GP"/>
          <date key="time:timestamp" value="2010-03-12T12:10:00"/>
        </event>
      </trace>
    </log>
    """

    def test_defaults_applied(self):
        trail = import_xes(self.PLAIN)
        entry = trail[0]
        assert entry.task == "T01"
        assert entry.case == "HT-5"
        assert entry.action == "execute"
        assert entry.obj is None
        assert entry.succeeded

    def test_plain_log_is_replayable(self):
        checker = ComplianceChecker(
            encode(healthcare_treatment_process()), role_hierarchy()
        )
        assert checker.check(import_xes(self.PLAIN)).compliant

    def test_timezone_aware_timestamps_normalized(self):
        document = self.PLAIN.replace(
            "2010-03-12T12:10:00", "2010-03-12T12:10:00+02:00"
        )
        trail = import_xes(document)
        assert trail[0].timestamp.tzinfo is None


class TestErrors:
    def test_invalid_xml(self):
        with pytest.raises(XesError):
            import_xes("<log><trace>")

    def test_wrong_root(self):
        with pytest.raises(XesError):
            import_xes("<notalog/>")

    def test_event_missing_task(self):
        document = """<log><trace>
            <string key="concept:name" value="C-1"/>
            <event><date key="time:timestamp" value="2010-01-01T00:00:00"/></event>
        </trace></log>"""
        with pytest.raises(XesError):
            import_xes(document)

    def test_bad_timestamp(self):
        document = """<log><trace>
            <string key="concept:name" value="C-1"/>
            <event>
              <string key="concept:name" value="T01"/>
              <date key="time:timestamp" value="yesterday"/>
            </event>
        </trace></log>"""
        with pytest.raises(XesError):
            import_xes(document)

    def test_unnamed_trace_gets_index_case(self):
        document = """<log><trace>
            <event>
              <string key="concept:name" value="T01"/>
              <date key="time:timestamp" value="2010-01-01T00:00:00"/>
            </event>
        </trace></log>"""
        trail = import_xes(document)
        assert trail[0].case == "trace-0"

    def test_nested_trace_events_count_for_both_traces(self):
        document = """<log><trace>
            <string key="concept:name" value="outer"/>
            <trace>
              <string key="concept:name" value="inner"/>
              <event>
                <string key="concept:name" value="T01"/>
                <date key="time:timestamp" value="2010-01-01T00:00:00"/>
              </event>
            </trace>
        </trace></log>"""
        assert [e.case for e in import_xes(document)] == ["outer", "inner"]


class TestQuarantine:
    BAD_TS = """<log><trace>
        <string key="concept:name" value="C-1"/>
        <event>
          <string key="concept:name" value="T01"/>
          <date key="time:timestamp" value="2010-01-01T00:00:00"/>
        </event>
        <event>
          <string key="concept:name" value="T02"/>
          <date key="time:timestamp" value="yesterday"/>
        </event>
        <event>
          <string key="concept:name" value="T03"/>
          <date key="time:timestamp" value="2010-01-01T00:02:00"/>
        </event>
    </trace></log>"""

    def test_bad_status_raises_xes_error(self):
        document = """<log><trace>
            <string key="concept:name" value="C-1"/>
            <event>
              <string key="concept:name" value="T01"/>
              <date key="time:timestamp" value="2010-01-01T00:00:00"/>
              <string key="purpose:status" value="maybe"/>
            </event>
        </trace></log>"""
        with pytest.raises(XesError):
            import_xes(document)

    def test_corrupt_event_quarantined_not_fatal(self):
        from repro.core.resilience import Quarantine

        quarantine = Quarantine()
        trail = import_xes(self.BAD_TS, quarantine=quarantine)
        assert [e.task for e in trail] == ["T01", "T03"]
        assert len(quarantine) == 1
        record = quarantine.entries[0]
        assert record.source == "xes"
        assert record.position == 1  # the second event of the document
        assert "yesterday" in record.reason or "yesterday" in record.raw

    def test_document_level_errors_still_raise_with_quarantine(self):
        from repro.core.resilience import Quarantine

        with pytest.raises(XesError):
            import_xes("<notalog/>", quarantine=Quarantine())
        with pytest.raises(XesError):
            import_xes("<log><trace>", quarantine=Quarantine())

    def test_quarantine_free_import_unchanged(self):
        with pytest.raises(XesError):
            import_xes(self.BAD_TS)

    def test_bad_object_reference_is_quarantined(self):
        document = self.BAD_TS.replace(
            '<date key="time:timestamp" value="yesterday"/>',
            '<date key="time:timestamp" value="2010-01-01T00:01:00"/>\n'
            '          <string key="purpose:object" value="[Jane"/>',
        )
        quarantine = Quarantine()
        trail = import_xes(document, quarantine=quarantine)
        assert [e.task for e in trail] == ["T01", "T03"]
        assert [record.position for record in quarantine] == [1]
        assert "bad purpose-extension attribute" in quarantine.entries[0].reason
        with pytest.raises(XesError):
            import_xes(document)

    def test_object_that_does_not_read_back_is_quarantined(self):
        document = self.BAD_TS.replace(
            '<date key="time:timestamp" value="yesterday"/>',
            '<date key="time:timestamp" value="2010-01-01T00:01:00"/>\n'
            '          <string key="purpose:object" value="/ EPR"/>',
        )
        quarantine = Quarantine()
        trail = import_xes(document, quarantine=quarantine)
        assert [e.task for e in trail] == ["T01", "T03"]
        assert [record.position for record in quarantine] == [1]
        assert "does not read back" in quarantine.entries[0].reason

    def test_broken_xml_after_a_bad_event_quarantines_nothing(self):
        quarantine = Quarantine()
        with pytest.raises(XesError, match="invalid XML"):
            import_xes(self.BAD_TS.replace("</log>", ""), quarantine=quarantine)
        assert len(quarantine) == 0


class TestNamespace:
    """OpenXES and ProM put every element in the XES namespace."""

    OPENXES = """<?xml version="1.0" encoding="UTF-8" ?>
    <log xes.version="1.0" xes.features="nested-attributes"
         openxes.version="1.0RC7" xmlns="http://www.xes-standard.org/">
      <extension name="Concept" prefix="concept"
                 uri="http://www.xes-standard.org/concept.xesext"/>
      <global scope="trace">
        <string key="concept:name" value="__INVALID__"/>
      </global>
      <classifier name="Activity" keys="concept:name"/>
      <string key="concept:name" value="hospital"/>
      <trace>
        <string key="concept:name" value="HT-5"/>
        <event>
          <string key="concept:name" value="T01"/>
          <string key="org:resource" value="John"/>
          <string key="org:role" value="GP"/>
          <date key="time:timestamp" value="2010-03-12T12:10:00.000+01:00"/>
        </event>
      </trace>
    </log>
    """

    def test_openxes_log_imports(self):
        (entry,) = import_xes(self.OPENXES)
        assert (entry.case, entry.task, entry.user, entry.role) == (
            "HT-5", "T01", "John", "GP",
        )
        assert entry.timestamp.tzinfo is None

    def test_other_namespace_root_still_raises(self):
        foreign = self.OPENXES.replace(
            "http://www.xes-standard.org/\">", "urn:example:other\">"
        )
        with pytest.raises(XesError, match="expected a <log> root element"):
            import_xes(foreign)


class _DeferringParser(ET.XMLPullParser):
    """A pull parser that parses nothing before ``close()``.

    Expat 2.6 and later defer reparsing a token that spans chunks until
    enough data has followed it, so the last chunks of a document may
    only be parsed, and their events only queued, inside ``close()``.
    This parser defers every chunk that way.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._held = []

    def feed(self, data):
        self._held.append(data)

    def close(self):
        for data in self._held:
            super().feed(data)
        super().close()


class TestStreaming:
    """The importer reads one trace at a time from text or a file."""

    @pytest.fixture
    def day_path(self, tmp_path):
        path = tmp_path / "day.xes"
        path.write_text(
            export_xes(hospital_day(300, seed=7).trail), encoding="utf-8"
        )
        return path

    @pytest.mark.parametrize("shape", ["text", "file", "wrapped"])
    def test_peak_memory_stays_within_twice_the_trail(self, day_path, shape):
        """``wrapped`` (not XES) puts every trace inside one other element
        of the log: each trace must still be freed when it ends."""
        text = day_path.read_text(encoding="utf-8")
        if shape == "wrapped":
            text = text.replace("<trace>", "<group><trace>", 1).replace(
                "</log>", "</group></log>"
            )
        with day_path.open("rb") as trail_file:
            source = trail_file if shape == "file" else text
            gc.collect()
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                trail = import_xes(source)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert len(trail) > 3000
        # The whole-tree parse peaked at over 10x the trail it returned.
        assert peak - base <= 2 * (retained - base)

    def test_equal_values_share_one_string(self, day_path):
        trail = import_xes(day_path.read_text(encoding="utf-8"))
        for field in ("user", "role", "action", "task", "case"):
            first: dict[str, str] = {}
            for entry in trail:
                value = getattr(entry, field)
                assert first.setdefault(value, value) is value, field

    def test_text_and_file_agree(self, day_path):
        from_text = import_xes(day_path.read_text(encoding="utf-8"))
        with day_path.open("rb") as trail_file:
            assert import_xes(trail_file) == from_text
        assert len(from_text) > 3000

    def test_events_queued_by_close_are_read(self, monkeypatch):
        document = export_xes(paper_audit_trail())
        expected = import_xes(document)
        monkeypatch.setattr(ET, "XMLPullParser", _DeferringParser)
        assert import_xes(document) == expected
        assert import_xes(io.BytesIO(document.encode())) == expected

    @pytest.mark.parametrize("step", [None, 1, 7, 64])
    def test_a_long_value_in_the_last_trace_keeps_its_events(
        self, tmp_path, step
    ):
        """A token longer than two chunks spans the document's last reads."""
        trail = paper_audit_trail()
        head, tail = export_xes(trail).rsplit("</trace>", 1)
        note = "x" * (3 * _CHUNK_SIZE)
        document = (
            f'{head}<string key="note" value="{note}"/></trace>{tail}'
        )
        path = tmp_path / "long.xes"
        path.write_text(document, encoding="utf-8")
        with path.open("rb") as trail_file:
            source = (
                trail_file if step is None
                else ShortReads(trail_file.read(), step)
            )
            imported = import_xes(source)
        last_case = list(trail.by_case())[-1]
        assert len(imported.for_case(last_case)) == len(
            trail.for_case(last_case)
        )
        assert imported == import_xes(export_xes(trail))

    def test_the_declared_encoding_decides(self, tmp_path):
        trail = AuditTrail(
            dataclasses.replace(entry, user="José")
            for entry in paper_audit_trail().for_case("HT-1")
        )
        document = export_xes(trail).replace(
            "encoding='utf-8'", "encoding='ISO-8859-1'", 1
        )
        path = tmp_path / "latin1.xes"
        path.write_bytes(document.encode("latin-1"))
        with path.open("rb") as trail_file:
            imported = import_xes(trail_file)
        assert {entry.user for entry in imported} == {"José"}
        assert imported == trail
        # Text is taken as it is, whatever its declaration says.
        assert import_xes(document) == trail

    @pytest.mark.parametrize(
        "document",
        [
            b"<?xml version='1.0' encoding='no-such-codec'?><log/>",
            b"<?xml version='1.0' encoding='shift_jis'?><log/>",
            b"<log><trace>\xff</trace></log>",
        ],
        ids=["unknown-codec", "multi-byte-codec", "stray-byte"],
    )
    def test_undecodable_bytes_raise_xes_error(self, document):
        with pytest.raises(XesError, match="invalid XML"):
            import_xes(io.BytesIO(document))
