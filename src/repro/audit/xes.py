"""XES import/export for audit trails.

XES (eXtensible Event Stream, IEEE 1849) is the interchange format of
the process-mining world — the community whose conformance-checking
techniques Section 6 compares against.  Supporting it means real logs
exported from WFM/ERP systems (the systems Section 3.5 says "are able to
record the task and the instance of the process") can be audited
directly, and trails generated here can be inspected in any
process-mining toolkit.

Mapping:

=====================  =========================================
XES attribute           Definition-4 field
=====================  =========================================
trace concept:name      case
event concept:name      task
event org:resource      user
event org:role          role
event time:timestamp    timestamp
event purpose:action    action          (this library's extension)
event purpose:object    object          (this library's extension)
event purpose:status    status          (this library's extension)
=====================  =========================================

Events missing the purpose-control extension import with defaults
(action ``"execute"``, no object, success) so plain task-level XES logs
remain replayable by Algorithm 1.  Elements may carry the standard's
namespace (``xmlns="http://www.xes-standard.org/"``, as OpenXES and
ProM write them) or none.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from datetime import datetime
from sys import intern
from typing import IO, TYPE_CHECKING, Iterator

from repro.audit.model import AuditTrail, LogEntry, Status
from repro.errors import AuditError, PolicyError
from repro.policy.model import ObjectRef

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.resilience import Quarantine

_XES_NAMESPACE = "{http://www.xes-standard.org/}"
_LOG = frozenset({"log", _XES_NAMESPACE + "log"})
_TRACE = frozenset({"trace", _XES_NAMESPACE + "trace"})
_EVENT = frozenset({"event", _XES_NAMESPACE + "event"})

# Bytes (or characters) handed to the parser at a time.  Every element
# one chunk completes is built before the first of them is decoded, and
# elements take about twelve times the bytes of their XML, so 8 KiB of
# XES builds about 100 kB of them, however large the document.
_CHUNK_SIZE = 8 * 1024


class XesError(AuditError):
    """An XES document could not be parsed into an audit trail."""


def _string(parent: ET.Element, key: str, value: str) -> None:
    ET.SubElement(parent, "string", {"key": key, "value": value})


def _date(parent: ET.Element, key: str, value: datetime) -> None:
    ET.SubElement(parent, "date", {"key": key, "value": value.isoformat()})


def export_xes(trail: AuditTrail, log_name: str = "audit-trail") -> str:
    """Serialize *trail* as an XES document (one trace per case)."""
    log = ET.Element(
        "log",
        {"xes.version": "1.0", "xes.features": "nested-attributes"},
    )
    _string(log, "concept:name", log_name)
    for case, case_trail in trail.by_case().items():
        trace = ET.SubElement(log, "trace")
        _string(trace, "concept:name", case)
        for entry in case_trail:
            event = ET.SubElement(trace, "event")
            _string(event, "concept:name", entry.task)
            _string(event, "org:resource", entry.user)
            _string(event, "org:role", entry.role)
            _date(event, "time:timestamp", entry.timestamp)
            _string(event, "lifecycle:transition", "complete")
            _string(event, "purpose:action", entry.action)
            if entry.obj is not None:
                _string(event, "purpose:object", str(entry.obj))
            _string(event, "purpose:status", entry.status.value)
    ET.indent(log)
    return ET.tostring(log, encoding="unicode", xml_declaration=True)


def _attributes(element: ET.Element) -> dict[str, str]:
    found: dict[str, str] = {}
    for child in element:
        key = child.get("key")
        value = child.get("value")
        if key is not None and value is not None:
            found[key] = value
    return found


def _event_entry(case: str, attributes: dict[str, str]) -> LogEntry:
    """Decode one event's attribute map; raises :class:`XesError`."""
    task = attributes.get("concept:name")
    raw_timestamp = attributes.get("time:timestamp")
    if task is None or raw_timestamp is None:
        raise XesError(
            f"event in trace {case!r} lacks concept:name or time:timestamp"
        )
    try:
        timestamp = datetime.fromisoformat(raw_timestamp)
    except ValueError as error:
        raise XesError(
            f"bad timestamp {raw_timestamp!r} in trace {case!r}"
        ) from error
    raw_object = attributes.get("purpose:object")
    try:
        obj = ObjectRef.parse(raw_object) if raw_object else None
        status = Status(attributes.get("purpose:status", "success"))
    except (ValueError, PolicyError) as error:
        raise XesError(
            f"bad purpose-extension attribute in trace {case!r}: {error}"
        ) from error
    # Interned as the wire decoder interns them: equal values share one
    # string, and the replay tier's dicts keyed by them compare by pointer.
    return LogEntry(
        user=intern(attributes.get("org:resource", "unknown")),
        role=intern(attributes.get("org:role", "unknown")),
        action=intern(attributes.get("purpose:action", "execute")),
        obj=obj,
        task=intern(task),
        case=case,
        timestamp=timestamp,
        status=status,
    )


def _chunks(stream: str | IO[bytes]) -> Iterator[str | bytes]:
    if isinstance(stream, str):
        for start in range(0, len(stream), _CHUNK_SIZE):
            yield stream[start : start + _CHUNK_SIZE]
    else:
        while chunk := stream.read(_CHUNK_SIZE):
            yield chunk


def _events(stream: str | IO[bytes]) -> Iterator[tuple[str, ET.Element]]:
    """The parser's start and end events, one chunk of *stream* at a time."""
    parser = ET.XMLPullParser(events=("start", "end"))
    for chunk in _chunks(stream):
        parser.feed(chunk)
        yield from parser.read_events()
    parser.close()
    # Expat may hold a token that spans chunks back until the final
    # parse inside close(), and with it the end of the last trace.
    yield from parser.read_events()


def _outermost_traces(stream: str | IO[bytes]) -> Iterator[ET.Element]:
    """Each ``<trace>`` no other trace encloses, complete, in document order.

    The document is parsed one chunk at a time.  A trace is cleared once
    the caller resumes, and every finished child of the root is dropped,
    so the tree never holds more than the open root child.  Raises
    :class:`XesError` for broken XML, an encoding the parser cannot read
    or a root other than ``<log>``.
    """
    root = None
    depth = open_traces = 0
    try:
        for kind, element in _events(stream):
            if kind == "start":
                if root is None:
                    if element.tag not in _LOG:
                        raise XesError(
                            "expected a <log> root element, "
                            f"found <{element.tag}>"
                        )
                    root = element
                depth += 1
                if element.tag in _TRACE:
                    open_traces += 1
                continue
            depth -= 1
            if element.tag in _TRACE:
                open_traces -= 1
                if not open_traces:
                    yield element
                    element.clear()
            if depth == 1:
                del root[:]
    except (ET.ParseError, LookupError, ValueError) as error:
        # LookupError and ValueError: a declared encoding that is unknown
        # or multi-byte, which the parser refuses before any element.
        raise XesError(f"invalid XML: {error}") from error


def import_xes(
    source: str | IO[bytes], quarantine: "Quarantine | None" = None
) -> AuditTrail:
    """Parse an XES document into an :class:`AuditTrail`.

    *source* is document text (a ``str``) or a binary file object whose
    bytes are decoded as the XML declaration says (UTF-8 without one).
    The document is read incrementally: each trace's events become
    entries when the trace's end tag arrives, and the trace's elements
    are then freed.

    Raises :class:`XesError` for malformed documents or events missing
    the mandatory attributes (task name, timestamp) or carrying invalid
    purpose-extension values.  With a *quarantine*, per-event failures
    are diverted to the dead-letter collection instead (one corrupt
    event costs one event, not the import); only document-level errors
    (broken XML, wrong root) still raise.  Dead letters are held until
    the whole document has parsed, so a document that raises adds
    nothing to *quarantine*.

    A trace nested inside another is not XES.  Each trace still takes
    every ``<event>`` below it, and traces are taken outer before inner,
    so an inner trace's events are imported twice, once under each case.
    """
    entries: list[LogEntry] = []
    dead_letters: list[tuple[int, str, str]] = []
    trace_index = event_index = 0
    for outermost in _outermost_traces(source):
        for trace in outermost.iter():
            if trace.tag not in _TRACE:
                continue
            case = intern(
                _attributes(trace).get("concept:name", f"trace-{trace_index}")
            )
            trace_index += 1
            for event in trace.iter():
                if event.tag not in _EVENT:
                    continue
                attributes = _attributes(event)
                try:
                    entries.append(_event_entry(case, attributes))
                except XesError as error:
                    if quarantine is None:
                        raise
                    dead_letters.append(
                        (event_index, str(error), repr(attributes))
                    )
                event_index += 1
    for position, reason, raw in dead_letters:
        quarantine.add(source="xes", position=position, reason=reason, raw=raw)
    return AuditTrail(entries)
