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
remain replayable by Algorithm 1.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from datetime import datetime
from typing import TYPE_CHECKING

from repro.audit.model import AuditTrail, LogEntry, Status
from repro.errors import AuditError
from repro.policy.model import ObjectRef

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.resilience import Quarantine


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
    if timestamp.tzinfo is not None:
        timestamp = timestamp.replace(tzinfo=None)
    raw_object = attributes.get("purpose:object")
    try:
        obj = ObjectRef.parse(raw_object) if raw_object else None
        status = Status(attributes.get("purpose:status", "success"))
    except ValueError as error:
        raise XesError(
            f"bad purpose-extension attribute in trace {case!r}: {error}"
        ) from error
    return LogEntry(
        user=attributes.get("org:resource", "unknown"),
        role=attributes.get("org:role", "unknown"),
        action=attributes.get("purpose:action", "execute"),
        obj=obj,
        task=task,
        case=case,
        timestamp=timestamp,
        status=status,
    )


def import_xes(
    document: str, quarantine: "Quarantine | None" = None
) -> AuditTrail:
    """Parse an XES document into an :class:`AuditTrail`.

    Raises :class:`XesError` for malformed documents or events missing
    the mandatory attributes (task name, timestamp) or carrying invalid
    purpose-extension values.  With a *quarantine*, per-event failures
    are diverted to the dead-letter collection instead (one corrupt
    event costs one event, not the import); only document-level errors
    (broken XML, wrong root) still raise.
    """
    try:
        root = ET.fromstring(document)
    except ET.ParseError as error:
        raise XesError(f"invalid XML: {error}") from error
    if root.tag != "log":
        raise XesError(f"expected a <log> root element, found <{root.tag}>")

    entries: list[LogEntry] = []
    event_index = 0
    for trace_index, trace in enumerate(root.iter("trace")):
        trace_attributes = _attributes(trace)
        case = trace_attributes.get("concept:name", f"trace-{trace_index}")
        for event in trace.iter("event"):
            attributes = _attributes(event)
            try:
                entries.append(_event_entry(case, attributes))
            except XesError as error:
                if quarantine is None:
                    raise
                quarantine.add(
                    source="xes",
                    position=event_index,
                    reason=str(error),
                    raw=repr(attributes),
                )
            event_index += 1
    return AuditTrail(entries)
