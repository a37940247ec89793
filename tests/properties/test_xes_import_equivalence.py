"""Property: the streaming XES importer reads what the whole-tree one read.

:func:`repro.audit.xes.import_xes` parses a document one chunk at a time
and decodes each trace when its end tag arrives.  The importer it
replaced parsed the whole document into one element tree and walked it;
that walk is kept here as the reference (``whole_tree_import``), as the
interpreted replay is for the compiled tier.  Over generated XES-shaped
documents — log- and trace-level attributes, ``<global>`` and
``<extension>`` elements, unnamed traces, timezone-aware and bad
timestamps, events missing a task or a timestamp, bad statuses and
objects, traces nested in traces or wrapped in other elements, broken
XML and wrong roots — both must give the same entries in the same
order, the same quarantine records and the same raise or no-raise, with
and without a quarantine, from text and from a file whose reads return
short chunks.
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET
from xml.sax.saxutils import quoteattr

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.audit import AuditTrail
from repro.audit.xes import XesError, _attributes, _event_entry, import_xes
from repro.core.resilience import Quarantine


def whole_tree_import(document, quarantine=None):
    """The whole-document importer: build the tree, then walk it."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as error:
        raise XesError(f"invalid XML: {error}") from error
    if root.tag != "log":
        raise XesError(f"expected a <log> root element, found <{root.tag}>")

    entries = []
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


class ShortReads(io.BytesIO):
    """A binary file whose reads return at most *step* bytes, as a
    pipe's may: chunk boundaries then fall inside tags, attribute values
    and multi-byte characters."""

    def __init__(self, data: bytes, step: int):
        super().__init__(data)
        self.step = step

    def read(self, size=-1):
        return super().read(self.step if size < 0 else min(size, self.step))


# ---------------------------------------------------------------------------
# XES-shaped documents

_TEXT = st.text(
    alphabet=st.sampled_from("aZ09 -_:/[].é☃𝄞<>&\"'"), max_size=6
)
_TIMESTAMPS = st.sampled_from([
    "2010-03-01T07:00:00",
    "2010-03-01T07:05:00",
    "2010-03-01T06:00:00+02:00",
    "2010-03-01T07:00:00.123-05:00",
])
#: key -> (values that decode, values that make the event bad)
_EVENT_FIELDS = {
    "concept:name": (st.sampled_from(["T01", "T02", "T06"]) | _TEXT, None),
    "org:resource": (st.sampled_from(["John", "Jane"]) | _TEXT, None),
    "org:role": (st.sampled_from(["GP", "Cardiologist"]), None),
    "time:timestamp": (_TIMESTAMPS, st.sampled_from(["yesterday", ""])),
    "lifecycle:transition": (st.just("complete"), None),
    "purpose:action": (st.sampled_from(["read", "write", "execute"]), None),
    "purpose:object": (
        st.sampled_from(["[Jane]EPR/Clinical", "EPR", ""]),
        st.sampled_from(["[unterminated", "[x]/"]),
    ),
    "purpose:status": (
        st.sampled_from(["success", "failure"]), st.just("maybe")
    ),
}
_MANDATORY = ("concept:name", "time:timestamp")


def attribute(key: str, value: str) -> str:
    kind = "date" if key == "time:timestamp" else "string"
    return f"<{kind} key={quoteattr(key)} value={quoteattr(value)}/>"


@st.composite
def events(draw, clean):
    """An event; a clean one always decodes, another may not."""
    parts = []
    for key, (good, bad) in _EVENT_FIELDS.items():
        if not draw(st.integers(0, 9)) and not (clean and key in _MANDATORY):
            continue  # each field is missing one time in ten
        if bad is not None and not clean and not draw(st.integers(0, 3)):
            parts.append(attribute(key, draw(bad)))
        else:
            parts.append(attribute(key, draw(good)))
    if draw(st.booleans()):
        # A nested attribute: not a direct child, so never an event field.
        parts.append(
            '<list key="tags"><values>'
            + attribute("concept:name", "nested")
            + "</values></list>"
        )
    return "<event>" + "".join(draw(st.permutations(parts))) + "</event>"


@st.composite
def traces(draw, clean, nested=True):
    parts = draw(st.lists(events(clean), max_size=4))
    name = draw(st.none() | st.sampled_from(["HT-1", "HT-2", "CT-1"]) | _TEXT)
    if name is not None:
        parts.append(attribute("concept:name", name))
    if draw(st.booleans()):
        parts.append(attribute("cost:total", draw(_TEXT)))
    if nested and not draw(st.integers(0, 9)):
        parts.append(draw(traces(clean, nested=False)))  # not XES
    return "<trace>" + "".join(draw(st.permutations(parts))) + "</trace>"


@st.composite
def documents(draw):
    children = [
        attribute("concept:name", draw(_TEXT)),
        '<extension name="Concept" prefix="concept" '
        'uri="http://www.xes-standard.org/concept.xesext"/>',
        '<global scope="event">'
        + attribute("concept:name", "__INVALID__")
        + attribute("time:timestamp", "1970-01-01T00:00:00")
        + "</global>",
        '<classifier name="Activity" keys="concept:name"/>',
    ]
    children = [child for child in children if draw(st.booleans())]
    clean = draw(st.booleans())
    for trace in draw(st.lists(traces(clean), max_size=5)):
        if not draw(st.integers(0, 9)):
            trace = f"<group>{trace}</group>"  # not XES
        children.append(trace)
    if not draw(st.integers(0, 9)):
        children.append(draw(events(clean)))  # outside every trace
    separator = draw(st.sampled_from(["", "\n", "\n  "]))
    root = draw(st.sampled_from(["log"] * 9 + ["notalog"]))
    document = (
        draw(st.sampled_from(["", "<?xml version='1.0' encoding='UTF-8'?>\n"]))
        + f'<{root} xes.version="1.0">{separator}'
        + separator.join(children)
        + f"{separator}</{root}>"
    )
    breakage = draw(st.sampled_from([None] * 8 + ["truncated", "stray <"]))
    if breakage == "truncated":
        document = document[: draw(st.integers(0, len(document) - 1))]
    elif breakage == "stray <":
        at = draw(st.integers(0, len(document)))
        document = document[:at] + "<" + document[at:]
    return document


def outcome(importer, source, quarantine):
    """(entries, error message, quarantine records) of one import."""
    entries = error = None
    try:
        entries = list(importer(source, quarantine))
    except XesError as raised:
        error = str(raised)
    records = [
        (record.source, record.position, record.reason, record.raw)
        for record in quarantine or ()
    ]
    return entries, error, records


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(document=documents(), step=st.integers(1, 64))
def test_streaming_import_matches_the_whole_tree_walk(document, step):
    for make_quarantine in (lambda: None, Quarantine):
        expected = outcome(whole_tree_import, document, make_quarantine())
        for source in (document, ShortReads(document.encode(), step)):
            actual = outcome(import_xes, source, make_quarantine())
            entries, error, records = expected
            if error is not None and error.startswith("invalid XML"):
                # Broken XML raises either way.  The stream may meet a
                # wrong root or, without a quarantine, a bad event before
                # the break, and names that instead.
                assert actual[1] is not None
                assert actual[2] == records == []
            else:
                assert actual == expected


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(document=documents())
def test_the_xes_namespace_changes_nothing(document):
    """OpenXES writes ``<log xmlns="http://www.xes-standard.org/">``."""
    namespaced = document.replace(
        '<log xes.version="1.0">',
        '<log xmlns="http://www.xes-standard.org/" xes.version="1.0">',
        1,
    )
    for make_quarantine in (lambda: None, Quarantine):
        plain = outcome(import_xes, document, make_quarantine())
        if plain[1] is None:
            assert outcome(import_xes, namespaced, make_quarantine()) == plain
