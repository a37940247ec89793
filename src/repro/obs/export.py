"""Exporters for the metrics registry and span tracer.

* :func:`to_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, cumulative ``_bucket`` series with
  ``le`` labels, ``_sum``/``_count`` for histograms);
* :func:`to_json` — a snapshot dictionary (stable shape, documented in
  ``docs/observability.md``) for ``repro ... --metrics``;
* :func:`format_summary` — the human-readable table behind
  ``repro stats``;
* :func:`spans_to_otlp` / :func:`metrics_to_otlp` — OTLP/JSON
  (``resourceSpans`` / ``resourceMetrics``, the OpenTelemetry protocol's
  JSON encoding: hex trace/span ids, stringified uint64 nanos), built
  with the standard library only;
* :class:`OtlpExporter` — the ``--otlp DEST`` sink: JSON-lines file, or
  HTTP POST to a collector's ``/v1/traces`` + ``/v1/metrics``.
"""

from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, LabelKey

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer


def _prom_labels(key: LabelKey, extra: str = "") -> str:
    parts = [f'{name}="{_escape(value)}"' for name, value in key]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _escape(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def to_prometheus(registry: "MetricsRegistry") -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    for instrument in registry.collect():
        name = instrument.name
        if instrument.help:
            lines.append(f"# HELP {name} {instrument.help}")
        lines.append(f"# TYPE {name} {instrument.kind}")
        if isinstance(instrument, (Counter, Gauge)):
            samples = instrument.samples() or {(): 0.0}
            for key, value in sorted(samples.items()):
                lines.append(f"{name}{_prom_labels(key)} {_format_value(value)}")
        elif isinstance(instrument, Histogram):
            for key, data in sorted(instrument.samples().items()):
                cumulative = 0
                for bound, count in zip(
                    instrument.buckets, data["buckets"]
                ):
                    cumulative += count
                    label = _prom_labels(key, f'le="{_format_value(bound)}"')
                    lines.append(f"{name}_bucket{label} {cumulative}")
                cumulative += data["buckets"][-1]
                label = _prom_labels(key, 'le="+Inf"')
                lines.append(f"{name}_bucket{label} {cumulative}")
                lines.append(
                    f"{name}_sum{_prom_labels(key)} {repr(data['sum'])}"
                )
                lines.append(
                    f"{name}_count{_prom_labels(key)} {data['count']}"
                )
    return "\n".join(lines) + "\n"


def to_json(registry: "MetricsRegistry") -> dict:
    """A JSON-serializable snapshot of every instrument.

    Shape::

        {"metric_name": {
            "type": "counter" | "gauge" | "histogram",
            "help": "...",
            "values": [{"labels": {...}, "value": 3}, ...]          # counter/gauge
            "series": [{"labels": {...}, "count": n, "sum": s,      # histogram
                        "p50": ..., "p95": ..., "max": ...,
                        "buckets": {"0.001": 2, ..., "+Inf": 0}}, ...]
        }}
    """
    snapshot: dict = {}
    for instrument in registry.collect():
        entry: dict = {"type": instrument.kind, "help": instrument.help}
        if isinstance(instrument, (Counter, Gauge)):
            entry["values"] = [
                {"labels": dict(key), "value": value}
                for key, value in sorted(instrument.samples().items())
            ]
        elif isinstance(instrument, Histogram):
            series = []
            for key, data in sorted(instrument.samples().items()):
                labels = dict(key)
                summary = instrument.summary(**labels)
                buckets = {
                    _format_value(bound): count
                    for bound, count in zip(instrument.buckets, data["buckets"])
                }
                buckets["+Inf"] = data["buckets"][-1]
                series.append(
                    {
                        "labels": labels,
                        "count": data["count"],
                        "sum": round(data["sum"], 9),
                        "p50": round(summary["p50"], 9),
                        "p95": round(summary["p95"], 9),
                        "p99": round(summary["p99"], 9),
                        "max": round(data["max"], 9),
                        "buckets": buckets,
                    }
                )
            entry["series"] = series
        snapshot[instrument.name] = entry
    return snapshot


def dumps_json(registry: "MetricsRegistry", indent: int = 2) -> str:
    return json.dumps(to_json(registry), indent=indent, sort_keys=True)


def format_summary(registry: "MetricsRegistry") -> str:
    """A human-readable telemetry digest (the body of ``repro stats``)."""
    lines: list[str] = ["telemetry summary:"]
    instruments = registry.collect()
    if not instruments:
        return "telemetry summary: (no metrics recorded)"
    for instrument in instruments:
        if isinstance(instrument, (Counter, Gauge)):
            samples = instrument.samples()
            if not samples:
                continue
            if list(samples) == [()]:
                lines.append(
                    f"  {instrument.name:<34} {_format_value(samples[()])}"
                )
            else:
                lines.append(f"  {instrument.name}")
                for key, value in sorted(samples.items()):
                    label = ", ".join(f"{k}={v}" for k, v in key) or "(all)"
                    lines.append(f"    {label:<32} {_format_value(value)}")
        elif isinstance(instrument, Histogram):
            for key, _data in sorted(instrument.samples().items()):
                labels = dict(key)
                s = instrument.summary(**labels)
                label = ", ".join(f"{k}={v}" for k, v in key)
                suffix = f"{{{label}}}" if label else ""
                lines.append(
                    f"  {instrument.name + suffix:<34} "
                    f"count={s['count']} sum={s['sum']:.4f} "
                    f"p50={s['p50']:.4f} p95={s['p95']:.4f} max={s['max']:.4f}"
                )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# OTLP/JSON (OpenTelemetry protocol, JSON encoding) — stdlib only.
#
# The shapes follow opentelemetry-proto's JSON mapping: trace/span ids
# are lowercase hex strings, uint64 nanosecond timestamps are encoded as
# strings, attributes are ``{"key": ..., "value": {"stringValue": ...}}``
# lists.  ``aggregationTemporality: 2`` is CUMULATIVE — what a scraped
# registry holds.

_OTLP_SCOPE = {"name": "repro.obs", "version": "1"}


def _otlp_value(value: object) -> dict:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def _otlp_attributes(attrs: dict) -> list[dict]:
    return [
        {"key": str(key), "value": _otlp_value(value)}
        for key, value in attrs.items()
    ]


def _otlp_resource(service_name: str) -> dict:
    return {
        "attributes": [
            {"key": "service.name", "value": {"stringValue": service_name}}
        ]
    }


def _nanos(seconds: float) -> str:
    return str(max(0, int(seconds * 1e9)))


def spans_to_otlp(tracer: "Tracer", service_name: str = "repro") -> dict:
    """The tracer's finished spans as an OTLP/JSON ``resourceSpans`` doc.

    Span times are absolute (wall clock), anchored on the tracer's
    :attr:`~repro.obs.trace.Tracer.epoch_unix_s` — which is what lets a
    collector line up spans from the service loop, the store writer, and
    worker processes on one timeline.
    """
    epoch = getattr(tracer, "epoch_unix_s", 0.0)
    spans: list[dict] = []
    for root in tracer.roots:
        for span in root.walk():
            start_s = epoch + span.start
            record: dict = {
                "traceId": span.trace_id,
                "spanId": span.span_id,
                "name": span.name,
                "kind": 1,  # SPAN_KIND_INTERNAL
                "startTimeUnixNano": _nanos(start_s),
                "endTimeUnixNano": _nanos(start_s + span.duration),
            }
            if span.parent_id:
                record["parentSpanId"] = span.parent_id
            if span.attrs:
                record["attributes"] = _otlp_attributes(span.attrs)
            if span.links:
                record["links"] = [
                    {"traceId": link.trace_id, "spanId": link.span_id}
                    for link in span.links
                ]
            spans.append(record)
    return {
        "resourceSpans": [
            {
                "resource": _otlp_resource(service_name),
                "scopeSpans": [{"scope": _OTLP_SCOPE, "spans": spans}],
            }
        ]
    }


def _otlp_exemplars(data: dict, buckets: tuple) -> list[dict]:
    exemplars = []
    for index, exemplar in sorted((data.get("exemplars") or {}).items()):
        record = {
            "timeUnixNano": _nanos(exemplar.get("ts", 0.0)),
            "asDouble": exemplar["value"],
        }
        if exemplar.get("trace_id"):
            record["traceId"] = exemplar["trace_id"]
        if exemplar.get("span_id"):
            record["spanId"] = exemplar["span_id"]
        exemplars.append(record)
    return exemplars


def metrics_to_otlp(
    registry: "MetricsRegistry",
    service_name: str = "repro",
    now_unix_s: Optional[float] = None,
) -> dict:
    """The registry as an OTLP/JSON ``resourceMetrics`` document.

    Counters become monotonic cumulative sums, gauges become gauges,
    histograms become cumulative histogram data points — with any
    trace-id **exemplars** recorded on their buckets attached, so a
    latency bucket points at the concrete trace that landed in it.
    """
    now = time.time() if now_unix_s is None else now_unix_s
    stamp = _nanos(now)
    metrics: list[dict] = []
    for instrument in registry.collect():
        entry: dict = {
            "name": instrument.name,
            "description": instrument.help,
        }
        if isinstance(instrument, (Counter, Gauge)):
            points = [
                {
                    "attributes": _otlp_attributes(dict(key)),
                    "timeUnixNano": stamp,
                    "asDouble": value,
                }
                for key, value in sorted(instrument.samples().items())
            ]
            if isinstance(instrument, Counter):
                entry["sum"] = {
                    "dataPoints": points,
                    "aggregationTemporality": 2,
                    "isMonotonic": True,
                }
            else:
                entry["gauge"] = {"dataPoints": points}
        elif isinstance(instrument, Histogram):
            points = []
            for key, data in sorted(instrument.samples().items()):
                point = {
                    "attributes": _otlp_attributes(dict(key)),
                    "timeUnixNano": stamp,
                    "count": str(data["count"]),
                    "sum": data["sum"],
                    "bucketCounts": [str(n) for n in data["buckets"]],
                    "explicitBounds": list(instrument.buckets),
                    "max": data["max"],
                }
                exemplars = _otlp_exemplars(data, instrument.buckets)
                if exemplars:
                    point["exemplars"] = exemplars
                points.append(point)
            entry["histogram"] = {
                "dataPoints": points,
                "aggregationTemporality": 2,
            }
        metrics.append(entry)
    return {
        "resourceMetrics": [
            {
                "resource": _otlp_resource(service_name),
                "scopeMetrics": [{"scope": _OTLP_SCOPE, "metrics": metrics}],
            }
        ]
    }


class OtlpExporter:
    """The ``--otlp DEST`` sink for spans and metrics.

    ``DEST`` is either a file path — each export appends one OTLP/JSON
    document per line (``resourceSpans`` and ``resourceMetrics`` lines
    interleave; :func:`repro.obs.console.load_otlp_spans` reads them
    back) — or an ``http(s)://`` collector base URL, POSTed to the
    standard ``/v1/traces`` and ``/v1/metrics`` endpoints.
    """

    def __init__(self, destination: str, service_name: str = "repro"):
        self.destination = destination
        self.service_name = service_name
        self._is_http = destination.startswith(("http://", "https://"))

    def export(
        self,
        tracer: "Tracer | None" = None,
        registry: "MetricsRegistry | None" = None,
    ) -> int:
        """Export whatever was handed in; returns documents written."""
        written = 0
        if tracer is not None and getattr(tracer, "enabled", False):
            document = spans_to_otlp(tracer, self.service_name)
            if document["resourceSpans"][0]["scopeSpans"][0]["spans"]:
                self._emit(document, "/v1/traces")
                written += 1
        if registry is not None and getattr(registry, "enabled", False):
            document = metrics_to_otlp(registry, self.service_name)
            if document["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]:
                self._emit(document, "/v1/metrics")
                written += 1
        return written

    def _emit(self, document: dict, endpoint: str) -> None:
        body = json.dumps(document, separators=(",", ":"), default=str)
        if self._is_http:
            self._post(endpoint, body)
        else:
            with open(self.destination, "a", encoding="utf-8") as sink:
                sink.write(body + "\n")

    def _post(self, endpoint: str, body: str) -> None:
        import urllib.request

        request = urllib.request.Request(
            self.destination.rstrip("/") + endpoint,
            data=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            response.read()
