"""Lines past the stream reader's 64 KiB limit are counted protocol errors.

asyncio's ``StreamReader.readline`` raises ``ValueError`` on a line
longer than its limit and drops what it had buffered.  The JSON-lines
endpoint must answer such a line with an ``error`` event and close that
connection (it cannot resynchronise); the HTTP endpoint must answer
``400``.  Either way the line is counted in
``serve_protocol_errors_total``, nothing is logged as an unhandled
exception, and the service keeps accepting connections.
"""

import gc
import json
import logging
import socket
import time

import pytest

from repro.obs import MetricsRegistry, Telemetry
from repro.scenarios import process_registry, role_hierarchy
from repro.serve import AuditStreamClient, ServeConfig

OVERSIZED = b"x" * 100_000


@pytest.fixture
def service(serve_factory, caplog):
    registry = MetricsRegistry()
    handle = serve_factory(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(shards=1),
        telemetry=Telemetry.create(registry=registry),
        http=True,
    )
    caplog.set_level(logging.ERROR, logger="asyncio")
    return handle, registry


def _exchange(port: int, request: bytes) -> bytes:
    """Send *request*, then read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                return b"".join(chunks)
            chunks.append(data)


def _handlers_settled(handle) -> None:
    """Wait until every connection handler returned, so an exception
    escaping one would already have been reported."""
    deadline = time.monotonic() + 10
    while handle.service._client_tasks and time.monotonic() < deadline:
        time.sleep(0.01)
    gc.collect()


def _unhandled(caplog) -> list:
    return [r for r in caplog.records if r.name == "asyncio"]


def _errors(registry) -> float:
    return registry.counter("serve_protocol_errors_total").value()


class TestStreamEndpoint:
    def test_oversized_line_is_answered_counted_and_closed(
        self, service, caplog
    ):
        handle, registry = service
        line = b'{"op": "status", "pad": "' + OVERSIZED + b'"}\n'
        replies = [
            json.loads(raw)
            for raw in _exchange(handle.port, line).splitlines()
        ]
        assert [reply["event"] for reply in replies] == ["hello", "error"]
        assert "too long" in replies[1]["detail"]
        _handlers_settled(handle)
        assert _errors(registry) == 1
        assert _unhandled(caplog) == []
        with AuditStreamClient(handle.host, handle.port) as client:
            assert client.recv_until("hello")["event"] == "hello"


class TestHttpEndpoint:
    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /" + OVERSIZED + b" HTTP/1.1\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + OVERSIZED + b"\r\n\r\n",
        ],
        ids=["request-line", "header-line"],
    )
    def test_oversized_line_is_a_json_400(
        self, service, caplog, request_bytes
    ):
        handle, registry = service
        response = _exchange(handle.http_port, request_bytes)
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"application/json" in head
        assert "too long" in json.loads(body)["error"]
        assert _errors(registry) == 1
        healthy = _exchange(handle.http_port, b"GET /healthz HTTP/1.1\r\n\r\n")
        assert healthy.startswith(b"HTTP/1.1 200 ")
        gc.collect()
        assert _unhandled(caplog) == []
