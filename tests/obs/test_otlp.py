"""OTLP/JSON export schema checks and operator-console rendering.

The exporter is stdlib-only, so these tests pin the protocol shape by
hand: hex ids, stringified uint64 nanos, attribute encoding, histogram
dataPoints with exemplars — the parts a real collector would reject if
they drifted.
"""

import json
import re

import pytest

from repro.obs import (
    MetricsRegistry,
    OtlpExporter,
    TraceContext,
    Tracer,
    metrics_to_otlp,
    spans_to_otlp,
)
from repro.obs.console import (
    TopSampler,
    case_trace_ids,
    load_otlp_spans,
    render_case,
    render_trace,
    spans_from_otlp,
)

HEX_TRACE = re.compile(r"^[0-9a-f]{32}$")
HEX_SPAN = re.compile(r"^[0-9a-f]{16}$")
NANOS = re.compile(r"^\d+$")


@pytest.fixture
def traced():
    tracer = Tracer()
    remote = TraceContext.new()
    with tracer.span("serve.ingest", parent=remote, case="HT-1") as root:
        with tracer.span("serve.replay", shard="shard-0", steps=3):
            pass
    tracer.record_span(
        "serve.verdict",
        tracer.epoch_unix_s + 0.5,
        0.0,
        parent=root.context,
        case="HT-1",
        ok=True,
    )
    return tracer, remote, root


class TestSpansToOtlp:
    def test_document_shape(self, traced):
        tracer, remote, root = traced
        document = spans_to_otlp(tracer, service_name="repro-test")
        resource = document["resourceSpans"][0]
        attrs = {
            a["key"]: a["value"] for a in resource["resource"]["attributes"]
        }
        assert attrs["service.name"] == {"stringValue": "repro-test"}
        spans = resource["scopeSpans"][0]["spans"]
        assert len(spans) == 3
        for record in spans:
            assert HEX_TRACE.match(record["traceId"])
            assert HEX_SPAN.match(record["spanId"])
            assert NANOS.match(record["startTimeUnixNano"])
            assert NANOS.match(record["endTimeUnixNano"])
            assert int(record["endTimeUnixNano"]) >= int(
                record["startTimeUnixNano"]
            )
        assert {r["name"] for r in spans} == {
            "serve.ingest",
            "serve.replay",
            "serve.verdict",
        }

    def test_parenthood_and_attribute_encoding(self, traced):
        tracer, remote, root = traced
        spans = spans_to_otlp(tracer)["resourceSpans"][0]["scopeSpans"][0][
            "spans"
        ]
        by_name = {r["name"]: r for r in spans}
        ingest = by_name["serve.ingest"]
        replay = by_name["serve.replay"]
        verdict = by_name["serve.verdict"]
        # One trace end to end, rooted at the remote (client) context.
        assert ingest["traceId"] == remote.trace_id
        assert ingest["parentSpanId"] == remote.span_id
        assert replay["traceId"] == ingest["traceId"]
        assert replay["parentSpanId"] == ingest["spanId"]
        assert verdict["parentSpanId"] == ingest["spanId"]
        replay_attrs = {a["key"]: a["value"] for a in replay["attributes"]}
        assert replay_attrs["shard"] == {"stringValue": "shard-0"}
        assert replay_attrs["steps"] == {"intValue": "3"}
        verdict_attrs = {a["key"]: a["value"] for a in verdict["attributes"]}
        assert verdict_attrs["ok"] == {"boolValue": True}

    def test_absolute_timestamps_are_epoch_anchored(self, traced):
        tracer, _, _ = traced
        spans = spans_to_otlp(tracer)["resourceSpans"][0]["scopeSpans"][0][
            "spans"
        ]
        anchor_nanos = tracer.epoch_unix_s * 1e9
        for record in spans:
            assert int(record["startTimeUnixNano"]) >= anchor_nanos - 1e6

    def test_is_json_serializable(self, traced):
        tracer, _, _ = traced
        json.dumps(spans_to_otlp(tracer))


class TestMetricsToOtlp:
    def test_counter_gauge_histogram_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "a counter").inc(3, kind="x")
        registry.gauge("g", "a gauge").set(7, shard="shard-0")
        histogram = registry.histogram("h_seconds", "a histogram")
        histogram.observe(0.002)
        document = metrics_to_otlp(registry, now_unix_s=1000.0)
        metrics = {
            m["name"]: m
            for m in document["resourceMetrics"][0]["scopeMetrics"][0][
                "metrics"
            ]
        }
        counter = metrics["c_total"]["sum"]
        assert counter["isMonotonic"] is True
        assert counter["aggregationTemporality"] == 2
        point = counter["dataPoints"][0]
        assert point["asDouble"] == 3.0
        assert point["timeUnixNano"] == str(int(1000.0 * 1e9))
        assert {a["key"]: a["value"] for a in point["attributes"]} == {
            "kind": {"stringValue": "x"}
        }
        gauge = metrics["g"]["gauge"]["dataPoints"][0]
        assert gauge["asDouble"] == 7.0
        hist = metrics["h_seconds"]["histogram"]
        assert hist["aggregationTemporality"] == 2
        series = hist["dataPoints"][0]
        assert series["count"] == "1"
        assert all(isinstance(n, str) for n in series["bucketCounts"])
        # +Inf is implicit: one more bucket count than explicit bounds.
        assert len(series["bucketCounts"]) == len(series["explicitBounds"]) + 1
        json.dumps(document)

    def test_exemplars_attach_trace_ids_to_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", "ingest latency")
        context = TraceContext.new()
        histogram.observe_with_exemplar(
            0.004, context.trace_id, context.span_id
        )
        document = metrics_to_otlp(registry, now_unix_s=1.0)
        point = document["resourceMetrics"][0]["scopeMetrics"][0]["metrics"][
            0
        ]["histogram"]["dataPoints"][0]
        exemplar = point["exemplars"][0]
        assert exemplar["traceId"] == context.trace_id
        assert exemplar["spanId"] == context.span_id
        assert exemplar["asDouble"] == 0.004
        assert NANOS.match(exemplar["timeUnixNano"])


class TestOtlpExporter:
    def test_file_sink_appends_json_lines(self, tmp_path, traced):
        tracer, _, _ = traced
        registry = MetricsRegistry()
        registry.counter("c").inc()
        destination = tmp_path / "export.jsonl"
        exporter = OtlpExporter(str(destination))
        assert exporter.export(tracer=tracer, registry=registry) == 2
        lines = destination.read_text().strip().splitlines()
        assert len(lines) == 2
        documents = [json.loads(line) for line in lines]
        assert "resourceSpans" in documents[0]
        assert "resourceMetrics" in documents[1]

    def test_disabled_components_write_nothing(self, tmp_path):
        from repro.obs import NULL_REGISTRY, NULL_TRACER

        destination = tmp_path / "export.jsonl"
        exporter = OtlpExporter(str(destination))
        assert exporter.export(NULL_TRACER, NULL_REGISTRY) == 0
        assert not destination.exists()


class TestConsoleRendering:
    def test_load_and_render_round_trip(self, tmp_path, traced):
        tracer, remote, root = traced
        registry = MetricsRegistry()
        registry.counter("noise").inc()  # metrics lines must be skipped
        destination = tmp_path / "export.jsonl"
        OtlpExporter(str(destination)).export(tracer=tracer, registry=registry)
        spans = load_otlp_spans(str(destination))
        assert len(spans) == 3
        assert case_trace_ids(spans, "HT-1") == [remote.trace_id]
        text = render_case(spans, "HT-1")
        assert "serve.ingest" in text
        assert "serve.replay" in text
        assert "serve.verdict" in text
        assert "remote parent" in text  # the client context is absent
        assert remote.trace_id in text
        # the tree indents children under the ingest root
        ingest_line = next(
            l for l in text.splitlines() if "serve.ingest" in l
        )
        replay_line = next(
            l for l in text.splitlines() if "serve.replay" in l
        )
        assert replay_line.index("serve.replay") > ingest_line.index(
            "serve.ingest"
        )

    def test_unknown_case_renders_a_miss(self, traced, tmp_path):
        tracer, _, _ = traced
        destination = tmp_path / "export.jsonl"
        OtlpExporter(str(destination)).export(tracer=tracer)
        spans = load_otlp_spans(str(destination))
        assert "no trace found" in render_case(spans, "XX-404")

    def test_render_trace_on_normalized_spans(self, traced):
        tracer, remote, _ = traced
        spans = spans_from_otlp(spans_to_otlp(tracer))
        text = render_trace(spans, remote.trace_id)
        assert text.startswith(f"trace {remote.trace_id}")
        assert "3 spans" in text


class TestTopSampler:
    def _payloads(self, entries, open_cases):
        return {
            "/healthz": {
                "status": "ok",
                "entries_received": entries,
                "quarantined_cases": 1,
                "draining": False,
                "cases": {"open": open_cases, "completed": 2},
            },
            "/metrics.json": {
                "serve_ingest_seconds": {
                    "type": "histogram",
                    "series": [
                        {"labels": {}, "p50": 0.001, "p99": 0.005}
                    ],
                }
            },
        }

    def test_rates_come_from_consecutive_samples(self):
        payloads = self._payloads(100, 3)
        sampler = TopSampler(lambda path: payloads[path])
        first = sampler.render(now=10.0)
        assert "entries 100" in first
        assert "(-)" in first  # no rate on the first sample
        assert "open 3" in first
        payloads.update(self._payloads(150, 4))
        second = sampler.render(now=20.0)
        assert "entries 150" in second
        assert "(5.0/s)" in second  # (150-100)/10s
        assert "open 4" in second  # /healthz cases.open, as sampled
        assert "p50 1.00ms" in second
        assert "p99 5.00ms" in second

    def test_sample_shape(self):
        payloads = self._payloads(5, 5)
        sample = TopSampler(lambda path: payloads[path]).sample(now=1.0)
        assert sample["entries_received"] == 5
        assert sample["open"] == 5
        assert sample["p99_s"] == 0.005


class TestTopTenantRows:
    def _payloads(self, with_api: bool):
        payloads = {
            "/healthz": {
                "status": "ok",
                "entries_received": 10,
                "quarantined_cases": 1,
                "draining": False,
                "cases": {"open": 1},
            },
            "/metrics.json": {"serve_ingest_seconds": {"series": []}},
        }
        if with_api:
            payloads["/api/v1/tenants"] = {
                "tenants": [
                    {
                        "purpose": "treatment",
                        "prefix": "HT",
                        "cases": 7,
                        "states": {"infringing": 5, "completed": 1},
                        "quarantined": 1,
                    },
                    {
                        "purpose": "clinicaltrial",
                        "prefix": "CT",
                        "cases": 1,
                        "states": {"completed": 1},
                        "quarantined": 0,
                    },
                ]
            }
        return payloads

    def test_renders_per_tenant_rows_from_the_control_api(self):
        payloads = self._payloads(with_api=True)
        text = TopSampler(lambda path: payloads[path]).render(now=1.0)
        assert "tenant" in text
        treatment_row = next(
            line for line in text.splitlines() if "treatment" in line
        )
        assert "HT" in treatment_row
        assert "7" in treatment_row  # cases
        assert "5" in treatment_row  # infringing

    def test_falls_back_cleanly_without_the_api(self):
        # A daemon predating the control plane: fetching /api/* raises.
        payloads = self._payloads(with_api=False)
        sampler = TopSampler(lambda path: payloads[path])
        sample = sampler.sample(now=1.0)
        assert sample["tenants"] is None
        text = sampler.render(now=2.0)
        assert "tenant" not in text
        assert "open 1" in text  # the service header is untouched
