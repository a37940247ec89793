"""End-to-end distributed tracing through the streaming service.

One streamed case must become **one trace**: the client mints a W3C
traceparent, the service adopts it as the remote parent of the case's
ingest root, the replay and the store flush join the same trace, and
the whole thing exports as OTLP/JSON that ``repro trace <case-id>``
can render.  This is the acceptance path for the trace-context layer —
a real socket, the real engine, a real SQLite store.
"""

import json

import pytest

from repro.cli import EXIT_OK, main
from repro.obs import (
    MetricsRegistry,
    OtlpExporter,
    Telemetry,
    TraceContext,
    Tracer,
)
from repro.obs.console import case_trace_ids, load_otlp_spans, render_case
from repro.scenarios import paper_audit_trail, process_registry, role_hierarchy
from repro.serve import AuditStreamClient, ServeConfig


@pytest.fixture
def traced_service(serve_factory, tmp_path):
    telemetry = Telemetry.create(registry=MetricsRegistry(), tracer=Tracer())
    handle = serve_factory(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(
            store_path=str(tmp_path / "traced.db")
        ),
        telemetry=telemetry,
    )
    return handle, telemetry


def _case_entries(case):
    return [entry for entry in paper_audit_trail() if entry.case == case]


class TestSingleCaseSingleTrace:
    def _stream_and_export(self, traced_service, tmp_path):
        handle, telemetry = traced_service
        remote = TraceContext.new()
        with AuditStreamClient(handle.host, handle.port) as client:
            client.send_trail(
                _case_entries("HT-1"), traceparent=remote.to_traceparent()
            )
            client.sync()
        handle.drain()  # flushes the store inside the case's trace
        destination = tmp_path / "trace-export.jsonl"
        OtlpExporter(str(destination)).export(
            tracer=telemetry.tracer, registry=telemetry.registry
        )
        return handle, telemetry, remote, destination

    def test_one_streamed_case_is_one_trace(self, traced_service, tmp_path):
        handle, telemetry, remote, destination = self._stream_and_export(
            traced_service, tmp_path
        )
        spans = load_otlp_spans(str(destination))

        # Every stage of the case joined the client's trace.
        assert case_trace_ids(spans, "HT-1") == [remote.trace_id]
        names = {s["name"] for s in spans if s["trace_id"] == remote.trace_id}
        assert {"serve.ingest", "serve.replay", "store.flush"} <= names

        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        ingests = by_name["serve.ingest"]
        assert len(ingests) == len(_case_entries("HT-1"))
        # The first ingest is the case root, parented on the remote
        # (client) context; later ingests join under it.
        roots = [s for s in ingests if s["parent_id"] == remote.span_id]
        assert len(roots) == 1
        root = roots[0]
        for span in ingests:
            assert span["trace_id"] == remote.trace_id
            if span is not root:
                assert span["parent_id"] == root["span_id"]
        for span in by_name["serve.replay"]:
            assert span["trace_id"] == remote.trace_id
            assert span["attrs"]["case"] == "HT-1"
            assert span["parent_id"] == root["span_id"]
        # A single-case batch parents the flush under the case root.
        flushes = [
            s
            for s in by_name["store.flush"]
            if s["trace_id"] == remote.trace_id
        ]
        assert flushes
        assert all(s["parent_id"] == root["span_id"] for s in flushes)
        assert handle.router.case_trace("HT-1").trace_id == remote.trace_id

    def test_ingest_exemplars_carry_the_case_trace_id(
        self, traced_service, tmp_path
    ):
        handle, telemetry, remote, _ = self._stream_and_export(
            traced_service, tmp_path
        )
        histogram = telemetry.registry.get("serve_ingest_seconds")
        exemplars = [
            exemplar
            for data in histogram.samples().values()
            for exemplar in data["exemplars"].values()
        ]
        assert exemplars
        assert {e["trace_id"] for e in exemplars} == {remote.trace_id}

    def test_repro_trace_renders_the_export(
        self, traced_service, tmp_path, capsys
    ):
        _, _, remote, destination = self._stream_and_export(
            traced_service, tmp_path
        )
        status = main(["trace", "HT-1", "--from", str(destination)])
        out = capsys.readouterr().out
        assert status == EXIT_OK
        assert remote.trace_id in out
        assert "serve.ingest" in out
        assert "serve.replay" in out
        assert "store.flush" in out

    def test_render_case_shows_the_remote_parent(
        self, traced_service, tmp_path
    ):
        _, _, remote, destination = self._stream_and_export(
            traced_service, tmp_path
        )
        spans = load_otlp_spans(str(destination))
        text = render_case(spans, "HT-1")
        assert "case HT-1" in text
        assert "remote parent" in text  # the client half is not exported


class TestMultiCaseTraces:
    def test_interleaved_cases_get_distinct_traces(
        self, traced_service, tmp_path
    ):
        handle, telemetry = traced_service
        with AuditStreamClient(handle.host, handle.port) as client:
            # Interleave two cases; only HT-1 carries a client context —
            # CT-1 must still get its own server-minted trace.
            remote = TraceContext.new()
            ht, ct = _case_entries("HT-1"), _case_entries("CT-1")
            for index in range(max(len(ht), len(ct))):
                if index < len(ht):
                    client.send_entry(
                        ht[index], traceparent=remote.to_traceparent()
                    )
                if index < len(ct):
                    client.send_entry(ct[index])
            client.sync()
        handle.drain()
        destination = tmp_path / "multi.jsonl"
        OtlpExporter(str(destination)).export(tracer=telemetry.tracer)
        spans = load_otlp_spans(str(destination))
        assert case_trace_ids(spans, "HT-1") == [remote.trace_id]
        ct_traces = case_trace_ids(spans, "CT-1")
        assert len(ct_traces) == 1
        assert ct_traces[0] != remote.trace_id

    def test_mixed_batch_flush_links_every_case(
        self, traced_service, tmp_path
    ):
        handle, telemetry = traced_service
        with AuditStreamClient(handle.host, handle.port) as client:
            client.send_trail(_case_entries("HT-1"))
            client.send_trail(_case_entries("CT-1"))
            client.sync()
        handle.drain()
        ht = handle.router.case_trace("HT-1")
        ct = handle.router.case_trace("CT-1")
        flushes = [
            span
            for root in telemetry.tracer.roots
            for span in root.walk()
            if span.name == "store.flush"
        ]
        linked = {
            link.trace_id for span in flushes for link in span.links
        }
        # The drain flush carried both cases: it cannot parent a single
        # trace, so it links each case's context instead.
        multi = [s for s in flushes if s.links]
        assert multi
        assert {ht.trace_id, ct.trace_id} <= linked

    def test_malformed_traceparent_still_audits(
        self, traced_service, tmp_path
    ):
        handle, telemetry = traced_service
        with AuditStreamClient(handle.host, handle.port) as client:
            client.send_trail(
                _case_entries("HT-1"), traceparent="zz-not-a-header"
            )
            client.sync()
        report = handle.drain()
        assert report.entries_received == len(_case_entries("HT-1"))
        # The header was ignored; the server minted a fresh root.
        context = handle.router.case_trace("HT-1")
        assert context is not None
        assert len(context.trace_id) == 32
        int(context.trace_id, 16)  # plain hex, not the malformed header
