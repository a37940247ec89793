"""Operator rendering for the observability CLI.

Two consumers live here, both pure functions over plain data so they
test without a terminal or a socket:

* ``repro trace <case-id>`` — :func:`load_otlp_spans` reads the
  JSON-lines file an :class:`~repro.obs.export.OtlpExporter` wrote,
  :func:`case_trace_ids` finds the case's trace, and
  :func:`render_trace` draws the span tree with per-span offsets and
  durations;
* ``repro top`` — :class:`TopSampler` polls a running service's
  ``/healthz`` + ``/metrics.json`` (the fetcher is injected: the CLI
  passes urllib, tests pass a dict lookup) and renders throughput,
  open cases, and p50/p99 ingest latency.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Iterable, Optional


# -- OTLP span loading -------------------------------------------------------
def _attr_value(value: dict) -> object:
    """Invert :func:`repro.obs.export._otlp_value`."""
    if "stringValue" in value:
        return value["stringValue"]
    if "intValue" in value:
        return int(value["intValue"])
    if "doubleValue" in value:
        return value["doubleValue"]
    if "boolValue" in value:
        return value["boolValue"]
    return None


def _normalize_span(record: dict) -> dict:
    start = int(record.get("startTimeUnixNano", "0")) / 1e9
    end = int(record.get("endTimeUnixNano", "0")) / 1e9
    return {
        "trace_id": record.get("traceId", ""),
        "span_id": record.get("spanId", ""),
        "parent_id": record.get("parentSpanId", ""),
        "name": record.get("name", ""),
        "start_unix_s": start,
        "duration_s": max(0.0, end - start),
        "attrs": {
            item["key"]: _attr_value(item.get("value", {}))
            for item in record.get("attributes", [])
        },
        "links": [
            {
                "trace_id": link.get("traceId", ""),
                "span_id": link.get("spanId", ""),
            }
            for link in record.get("links", [])
        ],
    }


def spans_from_otlp(document: dict) -> list[dict]:
    """Normalized span dicts from one OTLP ``resourceSpans`` document."""
    spans: list[dict] = []
    for resource in document.get("resourceSpans", []):
        for scope in resource.get("scopeSpans", []):
            for record in scope.get("spans", []):
                spans.append(_normalize_span(record))
    return spans


def load_otlp_spans(path: str) -> list[dict]:
    """Every span in a JSON-lines OTLP export file.

    ``resourceMetrics`` lines (the exporter interleaves them) and blank
    lines are skipped; a malformed line raises — an export file that
    does not parse should fail loudly, not render a partial trace.
    """
    spans: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            document = json.loads(line)
            if "resourceSpans" in document:
                spans.extend(spans_from_otlp(document))
    return spans


def case_trace_ids(spans: Iterable[dict], case: str) -> list[str]:
    """Trace ids that carry spans of *case* (ingest order preserved)."""
    seen: dict[str, None] = {}
    for span in spans:
        if span["attrs"].get("case") == case and span["trace_id"]:
            seen.setdefault(span["trace_id"], None)
    return list(seen)


# -- span-tree rendering -----------------------------------------------------
def _format_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}ms"


def _format_attrs(attrs: dict, skip: tuple[str, ...] = ()) -> str:
    parts = [
        f"{key}={value}" for key, value in attrs.items() if key not in skip
    ]
    return "  " + " ".join(parts) if parts else ""


def render_trace(spans: Iterable[dict], trace_id: str) -> str:
    """The trace's span tree, one line per span, ASCII branches.

    Spans reference parents by id (they may have been recorded on
    different threads or processes), so the tree is rebuilt here; a
    span whose parent is absent from the export (e.g. the client-side
    remote parent) becomes a root annotated with ``remote parent``.
    """
    members = [s for s in spans if s["trace_id"] == trace_id]
    if not members:
        return f"trace {trace_id}: no spans found"
    members.sort(key=lambda s: (s["start_unix_s"], s["name"]))
    by_id = {s["span_id"]: s for s in members}
    children: dict[str, list[dict]] = {}
    roots: list[dict] = []
    for span in members:
        parent = span["parent_id"]
        if parent and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    t0 = min(s["start_unix_s"] for s in members)
    end = max(s["start_unix_s"] + s["duration_s"] for s in members)
    cases = sorted(
        {
            str(s["attrs"]["case"])
            for s in members
            if s["attrs"].get("case") is not None
        }
    )
    header = f"trace {trace_id}"
    if cases:
        header += f" · case {', '.join(cases)}"
    header += f" · {len(members)} spans · {_format_ms(end - t0)}"
    lines = [header]

    def emit(span: dict, prefix: str, branch: str, last: bool) -> None:
        offset = _format_ms(span["start_unix_s"] - t0)
        note = ""
        if span["parent_id"] and span["parent_id"] not in by_id:
            note = "  (remote parent)"
        links = span.get("links") or []
        if links:
            note += f"  (+{len(links)} linked traces)"
        lines.append(
            f"{prefix}{branch}{span['name']}  @{offset} "
            f"+{_format_ms(span['duration_s'])}"
            f"{_format_attrs(span['attrs'])}{note}"
        )
        kids = children.get(span["span_id"], [])
        child_prefix = prefix + ("   " if last else "|  ")
        if branch == "":
            child_prefix = prefix
        for index, kid in enumerate(kids):
            kid_last = index == len(kids) - 1
            emit(kid, child_prefix, "`- " if kid_last else "|- ", kid_last)

    for index, root in enumerate(roots):
        emit(root, "", "", index == len(roots) - 1)
    return "\n".join(lines)


def render_case(spans: list[dict], case: str) -> str:
    """Every trace that touched *case*, rendered (the ``repro trace`` body)."""
    trace_ids = case_trace_ids(spans, case)
    if not trace_ids:
        return f"case {case!r}: no trace found in the export"
    return "\n\n".join(render_trace(spans, tid) for tid in trace_ids)


# -- live service sampling (`repro top`) -------------------------------------
#: ``fetch(path) -> parsed JSON`` against the service's HTTP endpoint.
Fetcher = Callable[[str], dict]


class TopSampler:
    """Samples a running service and renders throughput deltas.

    Rates are computed between consecutive :meth:`sample` calls; the
    first render shows absolute numbers only.  The fetcher (and the
    clock, for tests) are injected.
    """

    def __init__(self, fetch: Fetcher):
        self._fetch = fetch
        self._prev: Optional[dict] = None

    def sample(self, now: Optional[float] = None) -> dict:
        health = self._fetch("/healthz")
        metrics = self._fetch("/metrics.json")
        ingest = metrics.get("serve_ingest_seconds", {}).get("series") or []
        latency = ingest[0] if ingest else {}
        # Daemons predating the control plane have no /api/ mount; the
        # per-tenant section simply disappears rather than erroring.
        try:
            tenants = self._fetch("/api/v1/tenants").get("tenants")
        except Exception:
            tenants = None
        return {
            "t": time.monotonic() if now is None else now,
            "entries_received": health.get("entries_received", 0),
            "open": health.get("cases", {}).get("open", 0),
            "quarantined": health.get("quarantined_cases", 0),
            "draining": health.get("draining", False),
            "status": health.get("status", "ok"),
            "tenants": tenants,
            "p50_s": latency.get("p50", 0.0),
            "p99_s": latency.get("p99", 0.0),
        }

    @staticmethod
    def _rate(delta: float, seconds: float) -> str:
        if seconds <= 0:
            return "-"
        return f"{delta / seconds:.1f}/s"

    def render(self, now: Optional[float] = None) -> str:
        current = self.sample(now=now)
        previous, self._prev = self._prev, current
        elapsed = current["t"] - previous["t"] if previous else 0.0
        total_rate = (
            self._rate(
                current["entries_received"] - previous["entries_received"],
                elapsed,
            )
            if previous
            else "-"
        )
        if current["draining"]:
            state = "draining"
        elif current["status"] != "ok":
            state = current["status"]  # e.g. store-failed: entries refused
        else:
            state = "serving"
        lines = [
            f"repro top — {state} · entries {current['entries_received']} "
            f"({total_rate}) · open {current['open']} · "
            f"quarantined {current['quarantined']} · "
            f"ingest p50 {_format_ms(current['p50_s'])} "
            f"p99 {_format_ms(current['p99_s'])}",
        ]
        if current.get("tenants"):
            lines.append(
                f"{'tenant':<16}{'prefix':>7}{'cases':>7}"
                f"{'infringing':>12}{'quarantined':>13}"
            )
            for tenant in current["tenants"]:
                states = tenant.get("states", {})
                lines.append(
                    f"{tenant.get('purpose', '?'):<16}"
                    f"{tenant.get('prefix', '-'):>7}"
                    f"{tenant.get('cases', 0):>7}"
                    f"{states.get('infringing', 0):>12}"
                    f"{tenant.get('quarantined', 0):>13}"
                )
        return "\n".join(lines)
