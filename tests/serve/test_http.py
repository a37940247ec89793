"""The daemon's HTTP surface: health, metrics, and method hygiene.

Operators point probes, scrapers, and the ``repro top`` console at this
endpoint, so it must answer HEAD without a body, reject unknown methods
with a clean 405 + ``Allow``, survive a malformed request line, and
publish entries and cases by state in ``/healthz`` plus
machine-readable quantiles in ``/metrics.json``.
"""

import json
import socket
import urllib.request

import pytest

from repro.obs import MetricsRegistry, Telemetry
from repro.scenarios import paper_audit_trail, process_registry, role_hierarchy
from repro.serve import AuditStreamClient, ServeConfig


@pytest.fixture
def http_service(serve_factory):
    handle = serve_factory(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(),
        telemetry=Telemetry.create(registry=MetricsRegistry()),
        http=True,
    )
    with AuditStreamClient(handle.host, handle.port) as client:
        client.send_trail(paper_audit_trail())
        client.sync()
    return handle


def _raw_request(handle, payload: bytes) -> bytes:
    with socket.create_connection(
        (handle.host, handle.http_port), timeout=10
    ) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestHealthz:
    def test_reports_entries_and_open_cases(self, http_service):
        url = f"http://{http_service.host}:{http_service.http_port}/healthz"
        with urllib.request.urlopen(url, timeout=10) as response:
            payload = json.loads(response.read())
        assert payload["entries_observed"] == len(paper_audit_trail())
        states = [
            record["state"]
            for record in http_service.router.results(digests=False).values()
        ]
        assert payload["cases"]["open"] == states.count("open") > 0
        assert sum(payload["cases"].values()) == len(states)


class TestMetricsJson:
    def test_serves_quantiles_for_the_console(self, http_service):
        base = f"http://{http_service.host}:{http_service.http_port}"
        with urllib.request.urlopen(f"{base}/metrics.json", timeout=10) as r:
            assert r.headers["Content-Type"].startswith("application/json")
            payload = json.loads(r.read())
        ingest = payload["serve_ingest_seconds"]
        assert ingest["type"] == "histogram"
        series = ingest["series"][0]
        assert series["p50"] >= 0.0
        assert series["p99"] >= series["p50"]
        # the engine's per-state case gauge is exported too
        assert payload["monitor_cases"]["type"] == "gauge"


class TestMethodHygiene:
    def test_head_answers_headers_without_a_body(self, http_service):
        base = f"http://{http_service.host}:{http_service.http_port}"
        request = urllib.request.Request(f"{base}/healthz", method="HEAD")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            length = int(response.headers["Content-Length"])
            assert length > 2  # the GET body's length, advertised
            assert response.read() == b""
        # and the advertised length matches an actual GET
        with urllib.request.urlopen(f"{base}/healthz", timeout=10) as r:
            assert len(r.read()) == length

    def test_unknown_method_is_405_with_allow(self, http_service):
        response = _raw_request(
            http_service,
            b"POST /healthz HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 0\r\nConnection: close\r\n\r\n",
        )
        head = response.split(b"\r\n\r\n", 1)[0]
        assert b"405 Method Not Allowed" in head
        assert b"Allow: GET, HEAD" in head

    def test_malformed_request_line_is_400(self, http_service):
        response = _raw_request(http_service, b"garbage\r\n\r\n")
        assert b"400 Bad Request" in response.split(b"\r\n", 1)[0]

    def test_unknown_path_is_404_for_get_and_head(self, http_service):
        base = f"http://{http_service.host}:{http_service.http_port}"
        for method in ("GET", "HEAD"):
            request = urllib.request.Request(f"{base}/nope", method=method)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 404


class TestHttpHygiene:
    def test_json_endpoints_declare_charset_and_no_store(self, http_service):
        base = f"http://{http_service.host}:{http_service.http_port}"
        for path in ("/healthz", "/metrics.json"):
            with urllib.request.urlopen(base + path, timeout=10) as r:
                assert (
                    r.headers["Content-Type"]
                    == "application/json; charset=utf-8"
                )
                assert r.headers["Cache-Control"] == "no-store"
        # Prometheus text keeps its exposition content type, but is
        # still marked uncacheable.
        with urllib.request.urlopen(base + "/metrics", timeout=10) as r:
            assert r.headers["Content-Type"].startswith("text/plain")
            assert r.headers["Cache-Control"] == "no-store"

    def test_404_body_is_json(self, http_service):
        base = f"http://{http_service.host}:{http_service.http_port}"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/nope", timeout=10)
        error = excinfo.value
        assert error.headers["Content-Type"] == "application/json; charset=utf-8"
        assert json.loads(error.read()) == {"error": "not found"}


class TestApiMount:
    def test_api_404s_when_no_control_plane_is_mounted(self, http_service):
        base = f"http://{http_service.host}:{http_service.http_port}"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/api/v1/tenants", timeout=10)
        assert excinfo.value.code == 404

    def test_mounted_control_plane_serves_the_api(self, serve_factory):
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(),
            http=True,
            control="mount",
        )
        with AuditStreamClient(handle.host, handle.port) as client:
            client.send_trail(paper_audit_trail())
            client.sync()
        base = f"http://{handle.host}:{handle.http_port}"
        with urllib.request.urlopen(base + "/api/v1/tenants", timeout=10) as r:
            assert r.headers["Content-Type"] == "application/json; charset=utf-8"
            assert r.headers["Cache-Control"] == "no-store"
            payload = json.loads(r.read())
        assert {t["purpose"] for t in payload["tenants"]} == {
            "treatment",
            "clinicaltrial",
        }
        with urllib.request.urlopen(
            base + "/api/v1/verdicts?outcome=infringing", timeout=10
        ) as r:
            verdicts = json.loads(r.read())
        assert verdicts["count"] == 5

    def test_api_errors_carry_json_payloads(self, serve_factory):
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            http=True,
            control="mount",
        )
        base = f"http://{handle.host}:{handle.http_port}"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/api/v1/cases/HT-404", timeout=10)
        error = excinfo.value
        assert error.code == 404
        assert "HT-404" in json.loads(error.read())["error"]

    def test_api_post_requires_known_route(self, serve_factory):
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            http=True,
            control="mount",
        )
        request = urllib.request.Request(
            f"http://{handle.host}:{handle.http_port}/api/v1/tenants",
            data=b"{}",
            method="PUT",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 405
        assert "POST" in excinfo.value.headers["Allow"]
