"""Distributed span tracing for replay forensics.

``span("replay", case="HT-1")`` opens a timed span; spans nest via a
per-thread stack, producing a timing *tree* per top-level operation —
e.g. one ``audit`` span containing one ``replay`` span per case, each
containing ``weaknext`` spans for the frontiers it had to compute.  The
tree answers "where did the audit spend its time" without attaching a
profiler to a production auditor.

Beyond process-local trees, spans carry **distributed trace context**:

* every span has a 128-bit ``trace_id`` and 64-bit ``span_id`` (hex, as
  in W3C Trace Context / OpenTelemetry), inherited from the enclosing
  span or minted fresh for roots;
* a remote parent is adopted by passing ``parent=TraceContext(...)`` —
  e.g. parsed from an incoming ``traceparent`` header/field with
  :func:`parse_traceparent` — so one streamed case is one trace across
  client, service loop, and the store writer;
* the tracer records a **wall-clock epoch anchor**
  (:attr:`Tracer.epoch_unix_s`) next to its ``perf_counter`` epoch, so
  spans from different processes land on one absolute timeline;
* :meth:`Tracer.record_span` adopts externally timed work (e.g. a
  worker process that only hands back plain numbers) as a completed
  span of an existing trace.

Exports:

* :meth:`Tracer.to_json` — the nested tree, JSON-serializable;
* :meth:`Tracer.to_chrome_trace` — a flat list of complete ("ph": "X")
  events loadable in ``chrome://tracing`` / Perfetto;
* :func:`repro.obs.export.spans_to_otlp` — OTLP/JSON ``resourceSpans``.

As everywhere in :mod:`repro.obs`, the disabled default is a shared
no-op (:data:`NULL_TRACER`): its ``span()`` returns a reusable null
context manager and never reads the clock or mints ids.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional


def new_trace_id() -> str:
    """A fresh random 128-bit trace id (32 lowercase hex chars)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh random 64-bit span id (16 lowercase hex chars)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The propagatable identity of one span: ``(trace_id, span_id)``.

    This is what crosses process and wire boundaries — a child span
    opened under it joins ``trace_id`` with ``span_id`` as its parent.
    """

    trace_id: str
    span_id: str

    @classmethod
    def new(cls) -> "TraceContext":
        return cls(new_trace_id(), new_span_id())

    def to_traceparent(self) -> str:
        """The W3C ``traceparent`` header value (version 00, sampled)."""
        return f"00-{self.trace_id}-{self.span_id}-01"


_TRACEPARENT = re.compile(
    r"^[0-9a-f]{2}-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$"
)


def parse_traceparent(text: object) -> Optional[TraceContext]:
    """Parse a W3C ``traceparent`` value; None on anything malformed.

    Tolerant by design: trace propagation is best-effort, and a log
    shipper sending a broken header must not lose its entry over it.
    """
    if not isinstance(text, str):
        return None
    match = _TRACEPARENT.match(text.strip().lower())
    if match is None:
        return None
    trace_id, span_id = match.groups()
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(trace_id, span_id)


@dataclass
class Span:
    """One timed operation; ``children`` are the spans opened inside it."""

    name: str
    attrs: dict = field(default_factory=dict)
    start: float = 0.0  # perf_counter seconds, tracer-relative
    duration: float = 0.0
    children: list["Span"] = field(default_factory=list)
    trace_id: str = ""
    span_id: str = ""
    parent_id: str = ""
    #: Cross-trace references (OTel span links) — e.g. a store flush
    #: batching entries of several cases links each case's trace.
    links: tuple[TraceContext, ...] = ()

    @property
    def context(self) -> TraceContext:
        """This span's propagatable identity."""
        return TraceContext(self.trace_id, self.span_id)

    def to_dict(self) -> dict:
        payload: dict = {
            "name": self.name,
            "start_s": round(self.start, 6),
            "duration_s": round(self.duration, 6),
        }
        if self.trace_id:
            payload["trace_id"] = self.trace_id
            payload["span_id"] = self.span_id
            if self.parent_id:
                payload["parent_span_id"] = self.parent_id
        if self.links:
            payload["links"] = [
                {"trace_id": link.trace_id, "span_id": link.span_id}
                for link in self.links
            ]
        if self.attrs:
            payload["attrs"] = self.attrs
        if self.children:
            payload["children"] = [c.to_dict() for c in self.children]
        return payload

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


class _SpanContext:
    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc) -> bool:
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Collects span trees; thread-safe via per-thread span stacks."""

    enabled = True

    def __init__(self) -> None:
        # Two epochs, read back to back: perf_counter for monotonic
        # durations, wall clock to anchor spans on an absolute timeline
        # other processes share (cross-process correlation).
        self._epoch = time.perf_counter()
        self._epoch_unix = time.time()
        self._local = threading.local()
        self._roots: list[Span] = []
        self._lock = threading.Lock()

    @property
    def epoch_unix_s(self) -> float:
        """Wall-clock seconds-since-epoch of this tracer's time zero."""
        return self._epoch_unix

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(
        self,
        name: str,
        parent: Optional[TraceContext] = None,
        links: tuple[TraceContext, ...] = (),
        **attrs,
    ) -> _SpanContext:
        """Open a span: ``with tracer.span("replay", case=case):``.

        ``parent`` adopts a remote trace context (the span becomes a
        child of that — possibly other-process — span); without it the
        span joins the enclosing span on this thread, or starts a new
        trace at the root.  ``links`` attach cross-trace references.
        """
        span = Span(name=name, attrs=attrs, links=tuple(links))
        span.span_id = new_span_id()
        if parent is not None:
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
        return _SpanContext(self, span)

    def current_context(self) -> Optional[TraceContext]:
        """The innermost open span's context on this thread (or None)."""
        stack = self._stack()
        return stack[-1].context if stack else None

    def record_span(
        self,
        name: str,
        start_unix_s: float,
        duration_s: float,
        parent: Optional[TraceContext] = None,
        context: Optional[TraceContext] = None,
        links: tuple[TraceContext, ...] = (),
        **attrs,
    ) -> Span:
        """Adopt externally timed work as a completed span.

        For work measured elsewhere — a worker process handing back
        ``(wall start, duration)`` as plain data, or an instant event
        (``duration_s=0``).  ``context`` pins the span's own identity
        (so children recorded earlier can already reference it);
        ``parent`` attaches it to an existing trace.
        """
        span = Span(name=name, attrs=attrs, links=tuple(links))
        if context is not None:
            span.trace_id = context.trace_id
            span.span_id = context.span_id
        else:
            span.span_id = new_span_id()
        if parent is not None:
            span.trace_id = span.trace_id or parent.trace_id
            span.parent_id = parent.span_id
        if not span.trace_id:
            span.trace_id = new_trace_id()
        span.start = start_unix_s - self._epoch_unix
        span.duration = max(0.0, duration_s)
        with self._lock:
            self._roots.append(span)
        return span

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if not span.trace_id:
            if stack:
                top = stack[-1]
                span.trace_id = top.trace_id
                span.parent_id = top.span_id
            else:
                span.trace_id = new_trace_id()
        span.start = time.perf_counter() - self._epoch
        stack.append(span)

    def _pop(self, span: Span) -> None:
        span.duration = (time.perf_counter() - self._epoch) - span.start
        stack = self._stack()
        assert stack and stack[-1] is span, "unbalanced span nesting"
        stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)

    # -- export ------------------------------------------------------------
    @property
    def roots(self) -> list[Span]:
        with self._lock:
            return list(self._roots)

    def to_json(self) -> list[dict]:
        """The finished span trees as nested dictionaries."""
        return [root.to_dict() for root in self.roots]

    def to_chrome_trace(self) -> list[dict]:
        """Flat Chrome-trace ("ph": "X") events; microsecond timestamps."""
        events: list[dict] = []
        pid = os.getpid()
        for root in self.roots:
            for span in root.walk():
                events.append(
                    {
                        "name": span.name,
                        "ph": "X",
                        "ts": round(span.start * 1e6, 1),
                        "dur": round(span.duration * 1e6, 1),
                        "pid": pid,
                        "tid": 0,
                        "args": span.attrs,
                    }
                )
        return events

    def dumps(self, format: str = "json") -> str:
        if format == "chrome":
            return json.dumps(self.to_chrome_trace(), default=str)
        return json.dumps(self.to_json(), default=str, indent=2)


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """The disabled default: spans cost one method call, no clock reads,
    no id generation."""

    enabled = False
    epoch_unix_s = 0.0

    def span(self, name: str, parent=None, links=(), **attrs) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def current_context(self) -> None:
        return None

    def record_span(
        self, name, start_unix_s, duration_s, parent=None, context=None,
        links=(), **attrs,
    ) -> None:
        return None

    @property
    def roots(self) -> list:
        return []

    def to_json(self) -> list:
        return []

    def to_chrome_trace(self) -> list:
        return []

    def dumps(self, format: str = "json") -> str:
        return "[]"


NULL_TRACER = NullTracer()
