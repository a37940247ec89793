"""Hostile input costs one line or one request, never the daemon.

Three requests used to get past the listeners' checks:

* an ``entry`` whose text holds a lone UTF-16 surrogate escape
  (``"\\ud800"``) decoded, was logged and replayed, and then made the
  store's ``INSERT`` raise ``UnicodeEncodeError``: the store writer died,
  every later entry was refused ``busy``, and the next start hit the
  same row in the WAL and failed (an in-process submit of such text
  did the same);
* a line of 50,000 ``[`` made the decoder raise ``RecursionError``, which
  dropped the connection with a traceback and counted nothing;
* ``/api/`` read whatever ``Content-Length`` announced: one 60 MB POST
  grew the daemon's peak memory by 120 MB.

Now the surrogate and the nesting are protocol errors (an ``error``
reply, ``serve_protocol_errors_total``, a dead letter); in-process, no
``LogEntry`` holding such text can be built, so nothing of it is ever
logged, replayed or stored, and a row the store cannot render is still
a malformed entry that its writer dead-letters; and the HTTP endpoint
answers a deep body 400 and a long one 413 before reading it.
"""

import copy
import json
import socket
import time
from dataclasses import replace

import pytest

from repro.audit.model import TEXT_FIELDS, LogEntry
from repro.audit.store import AuditStore
from repro.errors import MalformedEntryError, PolicyError
from repro.obs import MetricsRegistry, Telemetry
from repro.policy.model import ObjectRef
from repro.scenarios import paper_audit_trail, process_registry, role_hierarchy
from repro.serve import AuditStreamClient, ServeConfig, ShardRouter
from repro.serve.protocol import encode_message, entry_to_message
from repro.serve.service import MAX_HTTP_BODY

SURROGATE = "Mallory\ud800"


def _errors(registry: MetricsRegistry) -> float:
    return registry.counter("serve_protocol_errors_total").value()


def _stored(path) -> list[LogEntry]:
    with AuditStore(str(path)) as store:
        return list(store.iter_entries())


def _router(tmp_path, wal: bool) -> ShardRouter:
    router = ShardRouter(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(
            store_path=str(tmp_path / "audit.db"),
            wal_dir=str(tmp_path / "wal") if wal else None,
            flush_max_batch=10_000,  # flushes only when the test says so
        ),
    )
    router.start()
    return router


def _around_the_constructor(entry: LogEntry, **fields) -> LogEntry:
    """A copy of *entry* with *fields* set past ``LogEntry``'s checks."""
    odd = copy.copy(entry)
    for name, value in fields.items():
        object.__setattr__(odd, name, value)
    return odd


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


@pytest.fixture
def durable_service(serve_factory, tmp_path):
    registry = MetricsRegistry()
    handle = serve_factory(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(
            store_path=str(tmp_path / "audit.db"),
            wal_dir=str(tmp_path / "wal"),
        ),
        telemetry=Telemetry.create(registry=registry),
        http=True,
    )
    return handle, registry


class TestLoneSurrogate:
    def test_a_wire_line_with_one_costs_that_line(
        self, durable_service, tmp_path
    ):
        handle, registry = durable_service
        trail = list(paper_audit_trail())
        hostile = encode_message(
            {**entry_to_message(trail[0]), "user": SURROGATE, "case": "HT-99"}
        )
        # The encoder escapes the surrogate: the line itself is ASCII.
        assert b"\\ud800" in hostile
        with AuditStreamClient(handle.host, handle.port) as client:
            client.send_trail(trail[:3])
            client.send_raw(hostile.rstrip(b"\n"))
            error = client.recv_until("error")
            assert "surrogate" in error["detail"]
            client.send_trail(trail[3:])
            client.sync()
        assert _errors(registry) == 1
        assert len(handle.router.dead_letters) == 1
        assert handle.router.store_error is None
        report = handle.drain()
        assert report.store_intact is True
        assert report.entries_written == len(trail)
        assert _stored(tmp_path / "audit.db") == trail

    def test_an_unencodable_row_is_dead_lettered_and_the_writer_lives(
        self, tmp_path
    ):
        """A batch the store refuses as malformed: no ``LogEntry`` can
        hold text the row builder cannot render, so the bad row is
        built around the constructor and queued on the writer directly.
        The writer's per-entry fallback dead-letters the one row and
        stores the rest, before and after."""
        trail = list(paper_audit_trail())
        router = _router(tmp_path, wal=False)
        bad = _around_the_constructor(trail[0], user=None)
        batch = [*trail[:2], bad, *trail[2:4]]
        router._writer.queue.put(("batch", batch, (), 0))
        assert router._writer_sync(timeout=10)
        assert router.store_error is None
        [letter] = router.dead_letters
        assert "batch offset 0" in letter.reason
        assert "must be a string" in letter.reason
        router._writer.queue.put(("batch", trail[4:], (), 0))
        report = router.drain()
        assert report.store_intact is True
        assert _stored(tmp_path / "audit.db") == trail

    def test_in_process_the_entry_is_refused_and_a_restart_resumes(
        self, tmp_path
    ):
        """Without a WAL too, an in-process entry the store could not
        hold is refused where it is built, before anything is replayed
        or stored, so a restart on the store resumes exactly what was
        live."""
        trail = list(paper_audit_trail())
        router = _router(tmp_path, wal=False)
        for entry in trail[:2]:
            assert router.submit(entry).accepted
        with pytest.raises(MalformedEntryError, match="UTF-8"):
            replace(trail[2], user=SURROGATE)
        assert router.case_sequence(trail[2].case) == sum(
            entry.case == trail[2].case for entry in trail[:2]
        )
        for entry in trail[2:]:
            assert router.submit(entry).accepted
        live = router.results()
        assert router.drain().store_intact is True
        assert len(router.dead_letters) == 0
        assert _stored(tmp_path / "audit.db") == trail
        again = _router(tmp_path, wal=False)
        assert again.recovery_report.replayed == len(trail)
        assert again.results() == live
        again.drain()

    def test_with_a_wal_the_entry_is_refused_and_a_restart_resumes(
        self, tmp_path
    ):
        """An entry the store could not hold cannot be built, so it is
        never logged and no crash can leave it in the WAL."""
        trail = list(paper_audit_trail())
        router = _router(tmp_path, wal=True)
        for entry in trail[:3]:
            assert router.submit(entry).accepted
        with pytest.raises(MalformedEntryError, match="UTF-8"):
            replace(trail[3], user=SURROGATE)
        assert router.case_sequence(trail[3].case) == sum(
            entry.case == trail[3].case for entry in trail[:3]
        )
        for entry in trail[3:]:
            assert router.submit(entry).accepted
        router.flush()
        assert router._writer_sync(timeout=10)
        # Crash as kill -9 would: no drain, the WAL left on disk.
        router._wal.commit()
        router._wal.close()
        router._accepting = False

        again = _router(tmp_path, wal=True)
        assert again.recovery_report.replayed == len(trail)
        assert again.drain().store_intact is True
        assert _stored(tmp_path / "audit.db") == trail


class TestObjectText:
    """An object text whose reference would be stored as a text that
    reads back as another reference (``"/ EPR"`` is stored as ``" EPR"``,
    which reads back as ``EPR``) used to break the hash chain: drain
    reported ``store_intact: false`` and a ``--wal-dir`` daemon refused
    to restart."""

    TEXTS = ("/ EPR", "EPR /", "/[Jane]EPR")

    def test_over_the_wire_each_costs_its_line(self, durable_service, tmp_path):
        handle, registry = durable_service
        trail = list(paper_audit_trail())
        with AuditStreamClient(handle.host, handle.port) as client:
            client.send_trail(trail[:3])
            for number, text in enumerate(self.TEXTS):
                message = entry_to_message(replace(trail[0], case=f"HT-9{number}"))
                client.send({**message, "obj": text})
                error = client.recv_until("error")
                assert "does not read back" in error["detail"]
            client.send_trail(trail[3:])
            client.sync()
        assert _errors(registry) == len(self.TEXTS)
        assert len(handle.router.dead_letters) == len(self.TEXTS)
        report = handle.drain()
        assert report.store_intact is True
        assert _stored(tmp_path / "audit.db") == trail
        again = _router(tmp_path, wal=True)
        assert again.recovery_report.replayed == len(trail)
        assert again.drain().store_intact is True

    @pytest.mark.parametrize("wal", [False, True], ids=["store", "store+wal"])
    def test_in_process_the_entry_is_refused(self, tmp_path, wal):
        """A reference built in-process skips the parser, but not the
        constructor's rule: such a reference cannot be built, so no
        entry carrying it is logged, replayed or stored, and a restart
        resumes what was live."""
        trail = list(paper_audit_trail())
        router = _router(tmp_path, wal=wal)
        for entry in trail[:2]:
            assert router.submit(entry).accepted
        for path in ((" EPR",), ("A/B",)):
            with pytest.raises(PolicyError, match="does not read back"):
                ObjectRef(None, path)
        for entry in trail[2:]:
            assert router.submit(entry).accepted
        live = router.results()
        assert router.entries_received == len(trail)
        assert router.drain().store_intact is True
        assert len(router.dead_letters) == 0
        assert _stored(tmp_path / "audit.db") == trail
        again = _router(tmp_path, wal=wal)
        assert again.results() == live
        again.drain()


class TestRequiredFields:
    def test_in_process_an_empty_field_is_refused_and_a_crash_resumes(
        self, tmp_path
    ):
        """The wire refuses an entry with an empty user, role, action,
        task or case; one submitted without a line used to be logged,
        and the next start then failed on it.  Now it is refused before
        anything is logged, replayed or stored."""
        trail = list(paper_audit_trail())
        router = _router(tmp_path, wal=True)
        for entry in trail[:3]:
            assert router.submit(entry).accepted
        for field in TEXT_FIELDS:
            with pytest.raises(MalformedEntryError, match=f"field\\(s\\): {field}"):
                router.submit(replace(trail[3], **{field: ""}))
        assert router.entries_received == 3
        for entry in trail[3:]:
            assert router.submit(entry).accepted
        # Crash as kill -9 would: the WAL holds every entry, the store none.
        router._wal.commit()
        router._wal.close()
        router._accepting = False

        again = _router(tmp_path, wal=True)
        assert again.recovery_report.wal_records == len(trail)
        assert again.drain().store_intact is True
        assert _stored(tmp_path / "audit.db") == trail


class TestDeadLetterBound:
    def test_long_junk_lines_leave_short_dead_letters(self, serve_factory):
        """500 junk lines of 60 KB used to leave 500 dead letters holding
        28.6 MB of text; each now keeps its first characters, and every
        count stays exact."""
        registry = MetricsRegistry()
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(),
            telemetry=Telemetry.create(registry=registry),
        )
        junk = b"j" * 60_000
        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            for _ in range(500):
                client.send_raw(junk)
                assert "not valid JSON" in client.recv_until("error")["detail"]
            assert client.status()["dead_letters"] == 500
        letters = list(handle.router.dead_letters)
        assert len(letters) == 500
        assert sum(len(l.raw) + len(l.reason) for l in letters) < 1 << 20
        assert letters[0].raw.startswith("j" * 256)
        assert letters[0].raw.endswith("[59744 more characters]")
        assert _errors(registry) == 500
        assert registry.counter("quarantined_entries_total").value(
            source="serve"
        ) == 500


class TestDeepNesting:
    def test_a_deep_line_is_an_error_and_the_connection_lives(
        self, durable_service
    ):
        handle, registry = durable_service
        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            client.send_raw(b"[" * 50_000)
            assert "nests deeper" in client.recv_until("error")["detail"]
            client.send_raw(b'{"op": "status"}')
            assert client.recv_until("status")["event"] == "status"
        assert _errors(registry) == 1
        assert len(handle.router.dead_letters) == 1

    def test_a_deep_api_body_is_a_400(self, serve_factory):
        registry = MetricsRegistry()
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            telemetry=Telemetry.create(registry=registry),
            http=True,
            control="mount",
        )
        body = b"[" * 50_000
        response = _exchange(
            handle.http_port,
            b"POST /api/v1/quarantine/HT-1/dismiss HTTP/1.1\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body,
        )
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert "not valid JSON" in json.loads(payload)["error"]
        assert _errors(registry) == 1


class TestHttpBodyBound:
    def test_a_long_body_is_refused_413_unread(self, durable_service):
        handle, registry = durable_service
        started = time.monotonic()
        # Only the headers are sent: a server that waited for the
        # announced 60 MB would never answer.
        response = _exchange(
            handle.http_port,
            b"POST /api/v1/quarantine/HT-1/dismiss HTTP/1.1\r\n"
            b"Content-Length: 60000000\r\n\r\n",
        )
        assert time.monotonic() - started < 5
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert "too large" in json.loads(payload)["error"]
        assert _errors(registry) == 1
        healthy = _exchange(handle.http_port, b"GET /healthz HTTP/1.1\r\n\r\n")
        assert healthy.startswith(b"HTTP/1.1 200 ")

    def test_a_negative_length_is_a_400(self, durable_service):
        handle, registry = durable_service
        response = _exchange(
            handle.http_port,
            b"POST /api/v1/quarantine/HT-1/dismiss HTTP/1.1\r\n"
            b"Content-Length: -5\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 400 ")
        assert _errors(registry) == 1

    def test_a_body_at_the_bound_is_read(self, serve_factory):
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            http=True,
            control="mount",
        )
        body = b" " * (MAX_HTTP_BODY - 2) + b"{}"
        response = _exchange(
            handle.http_port,
            b"POST /api/v1/quarantine/HT-404/requeue HTTP/1.1\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body,
        )
        # Read and parsed: the control plane answers for the case.
        assert b" 413 " not in response.split(b"\r\n", 1)[0]
        assert b" 400 " not in response.split(b"\r\n", 1)[0]
