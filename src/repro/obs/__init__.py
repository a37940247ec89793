"""Telemetry for the purpose-control pipeline (observability subsystem).

The paper's scalability story (Section 7) rests on two measurable
claims — WeakNext explores the LTS lazily (and memoizes), and cases
audit independently.  This package makes both observable in a running
audit without sacrificing the library's performance when nobody is
watching:

* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms
  in a mergeable registry (no third-party dependencies);
* :mod:`repro.obs.log` — structured JSON-lines events with a stable
  vocabulary (``case.audited``, ``entry.replayed``, ...);
* :mod:`repro.obs.trace` — nested span timing trees with W3C-style
  distributed trace context, exportable as JSON or Chrome-trace;
* :mod:`repro.obs.export` — Prometheus text format, JSON snapshots,
  OTLP/JSON (spans + metrics, file or HTTP collector), and the
  human-readable ``repro stats`` summary;
* :mod:`repro.obs.console` — operator rendering: ``repro trace``'s span
  trees and ``repro top``'s live service sampler.

The handle instrumented classes accept is a :class:`Telemetry` bundle.
The library default is :meth:`Telemetry.disabled` — a shared bundle of
no-op registry/logger/tracer, so un-instrumented callers pay only empty
method calls (never a lock, clock read, or allocation).  Enable it at
the edge::

    from repro.obs import Telemetry

    telemetry = Telemetry.create()          # fresh registry + tracer
    auditor = PurposeControlAuditor(registry, telemetry=telemetry)
    auditor.audit(trail)
    print(telemetry.registry.counter("cases_audited_total").total)

Metric names, labels, the event vocabulary, and the CLI flags are
documented in ``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.obs.export import (
    OtlpExporter,
    dumps_json,
    format_summary,
    metrics_to_otlp,
    spans_to_otlp,
    to_json,
    to_prometheus,
)
from repro.obs.log import (
    ARTIFACT_INVALID,
    AUTOMATON_CHECKPOINT,
    AUTOMATON_COMPILED,
    CASE_AUDITED,
    CASE_FAILED,
    CASE_QUARANTINED,
    CONTROL_CONFIG_LOADED,
    CONTROL_DISMISS,
    CONTROL_REAUDIT,
    CONTROL_REQUEUE,
    ENTRY_QUARANTINED,
    ENTRY_REPLAYED,
    EVENT_VOCABULARY,
    FRONTIER_GROWN,
    INFRINGEMENT_RAISED,
    LINT_RUN,
    MONITOR_SWEEP,
    NULL_EVENTS,
    PREFLIGHT_UNSOUND,
    SERVE_CLIENT,
    SERVE_DRAINED,
    SERVE_FLUSH,
    SERVE_RECOVERED,
    SERVE_STARTED,
    SERVE_TICK_FAILED,
    SERVE_WAL_COMMIT,
    SERVE_WAL_RETIRED,
    WEAKNEXT_COMPUTED,
    WORKER_INIT,
    WORKER_LOST,
    EventLogger,
    JsonLinesFormatter,
    MemoryEventLog,
    NullEventLogger,
    json_lines_logger,
)
from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    default_registry,
    set_default_registry,
    timed,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)


@dataclass(frozen=True)
class Telemetry:
    """The bundle instrumented pipeline classes consume.

    ``enabled`` is the single flag hot paths may branch on to skip
    clock reads; the three components are always safe to call either
    way (disabled components are no-ops).
    """

    registry: Union[MetricsRegistry, NullRegistry]
    events: Union[EventLogger, NullEventLogger]
    tracer: Union[Tracer, NullTracer]
    enabled: bool = True

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The shared no-op bundle (the library default)."""
        return NULL_TELEMETRY

    @classmethod
    def create(
        cls,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[EventLogger] = None,
        tracer: Optional[Tracer] = None,
    ) -> "Telemetry":
        """An enabled bundle; omitted components get fresh/no-op ones.

        Events default to the no-op logger (metrics are cheap and always
        wanted once telemetry is on; per-entry event emission is opt-in).
        """
        return cls(
            registry=registry if registry is not None else MetricsRegistry(),
            events=events if events is not None else NULL_EVENTS,
            tracer=tracer if tracer is not None else NULL_TRACER,
            enabled=True,
        )


NULL_TELEMETRY = Telemetry(
    registry=NULL_REGISTRY,
    events=NULL_EVENTS,
    tracer=NULL_TRACER,
    enabled=False,
)

__all__ = [
    "ARTIFACT_INVALID",
    "AUTOMATON_CHECKPOINT",
    "AUTOMATON_COMPILED",
    "CASE_AUDITED",
    "CASE_FAILED",
    "CASE_QUARANTINED",
    "CONTROL_CONFIG_LOADED",
    "CONTROL_DISMISS",
    "CONTROL_REAUDIT",
    "CONTROL_REQUEUE",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "ENTRY_QUARANTINED",
    "ENTRY_REPLAYED",
    "EVENT_VOCABULARY",
    "FRONTIER_GROWN",
    "INFRINGEMENT_RAISED",
    "LINT_RUN",
    "MONITOR_SWEEP",
    "NULL_EVENTS",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "PREFLIGHT_UNSOUND",
    "SERVE_CLIENT",
    "SERVE_DRAINED",
    "SERVE_FLUSH",
    "SERVE_RECOVERED",
    "SERVE_STARTED",
    "SERVE_TICK_FAILED",
    "SERVE_WAL_COMMIT",
    "SERVE_WAL_RETIRED",
    "WEAKNEXT_COMPUTED",
    "WORKER_INIT",
    "WORKER_LOST",
    "Counter",
    "EventLogger",
    "Gauge",
    "Histogram",
    "JsonLinesFormatter",
    "MemoryEventLog",
    "MetricsRegistry",
    "NullEventLogger",
    "NullRegistry",
    "NullTracer",
    "OtlpExporter",
    "Span",
    "Telemetry",
    "TraceContext",
    "Tracer",
    "default_registry",
    "dumps_json",
    "format_summary",
    "json_lines_logger",
    "metrics_to_otlp",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "set_default_registry",
    "spans_to_otlp",
    "timed",
    "to_json",
    "to_prometheus",
]
