"""The asyncio audit daemon (``repro serve``).

:class:`AuditService` wraps a :class:`~repro.serve.core.ShardRouter`
with the network surface:

* a **TCP JSON-lines endpoint** speaking :mod:`repro.serve.protocol` —
  clients stream ``entry``/``xes`` operations and receive per-case
  ``verdict`` events as transitions happen;
* a minimal **HTTP endpoint** (GET/HEAD; anything else is a clean 405)
  with ``/healthz`` (liveness + a statistics snapshot: entries, cases
  by state, WAL lag, recovery), ``/metrics`` (Prometheus
  text format from the telemetry registry), and ``/metrics.json`` (the
  JSON snapshot ``repro top`` samples);
* a **flush timer** committing buffered entries to the audit store
  and fsyncing the WAL every ``flush_interval_s``; a tick that fails
  is logged (``serve.tick_failed``) and the next tick retries;
* **graceful drain**: on SIGTERM (wired by the CLI) the service stops
  accepting input, flushes and integrity-checks the store, then sends
  each connected client the ``final`` verdict of every case it touched
  and a ``bye``.

Thread/loop topology: the event loop owns all sockets and replays every
entry itself.  Each TCP client is one :class:`asyncio.Protocol` whose
lines are decoded one by one; :meth:`ShardRouter.submit` runs each
entry's step and writes its verdict event before the next line is
looked at.  So a client that sends faster than the daemon replays is
held back by its own socket, and one that does not read is not read
either once its write buffer is full.  Only the store writer, the WAL
fsyncs of ``sync`` and the flush tick, drain, and the control API run
off the loop.
"""

from __future__ import annotations

import asyncio
import json
from typing import Iterator, Optional

from repro.audit.xes import XesError, import_xes
from repro.errors import ReproError
from repro.obs import (
    SERVE_CLIENT,
    SERVE_STARTED,
    SERVE_TICK_FAILED,
    to_json,
    to_prometheus,
)
from repro.serve.core import DrainReport, ShardRouter
from repro.serve.protocol import (
    EV_BUSY,
    EV_BYE,
    EV_ERROR,
    EV_FINAL,
    EV_HELLO,
    EV_STATUS,
    EV_SYNCED,
    OP_BYE,
    OP_ENTRY,
    OP_RESULTS,
    OP_STATUS,
    OP_SYNC,
    OP_XES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    encode_results,
    entry_from_message,
    entry_seq,
)


#: The largest request body the HTTP endpoint reads.  Control-plane
#: bodies are a few hundred bytes of JSON; a longer one is refused with
#: 413 before a byte of it is read.
MAX_HTTP_BODY = 1 << 16

#: The longest request line the JSON-lines endpoint takes, newline
#: excluded (the limit of asyncio's ``StreamReader``).  A longer line is
#: answered ``request line too long``, counted, and ends the connection.
MAX_LINE = 1 << 16

#: How long drain lets clients take their ``final`` events and ``bye``
#: before it aborts the connections still open.
DRAIN_CLOSE_S = 5.0


class _Client(asyncio.Protocol):
    """One TCP client: its line framing and its replies, in order.

    Each complete line goes to :meth:`AuditService._dispatch`, which
    replays an entry and writes its verdict before the next line is
    looked at.  While the transport's write buffer is full, or a
    ``results`` reply streams, the socket is not read and buffered lines
    wait.  A reply goes out one chunk per loop turn; events sent
    meanwhile are held behind it, so none splits its line.  After
    :meth:`close`, sends are dropped (the store and ``results`` are the
    record, not a departed client's events).
    """

    def __init__(self, service: "AuditService"):
        assert service._loop is not None
        self._service = service
        self._loop = service._loop
        self._transport: Optional[asyncio.Transport] = None
        self._buffer = b""  # received, not yet taken as lines
        self._paused = False  # the transport's write buffer is full
        self._reply: Optional[Iterator[bytes]] = None  # chunks to write
        self._held: list[bytes] = []  # events sent while it streams
        self._eof = False
        self._closing = False  # no more lines taken, nor events sent
        #: done once the connection is gone
        self.closed: asyncio.Future = self._loop.create_future()
        self.entries_sent = 0
        self.cases: set[str] = set()

    def connection_made(self, transport) -> None:
        self._transport = transport
        service = self._service
        service._connections.add(self)
        service._m_connections.inc()
        service._tel.events.emit(SERVE_CLIENT, phase="connect")
        self.send({"event": EV_HELLO, "version": PROTOCOL_VERSION})

    def data_received(self, data: bytes) -> None:
        self._buffer = self._buffer + data if self._buffer else data
        self._take_lines()

    def eof_received(self) -> bool:
        # Stay open: the lines already received are answered first.
        self._eof = True
        self._take_lines()
        return True

    def pause_writing(self) -> None:
        self._paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        # Not from inside the transport's write callback.
        self._loop.call_soon(self._resume)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._closing = True
        self._reply = None
        service = self._service
        service._connections.discard(self)
        service._tel.events.emit(
            SERVE_CLIENT, phase="disconnect", entries=self.entries_sent
        )
        if not self.closed.done():
            self.closed.set_result(None)

    def send(self, message: dict) -> None:
        """Send one event (the router's subscriber, on the loop)."""
        if self._closing:
            return
        data = encode_message(message)
        if self._reply is not None:
            self._held.append(data)
        else:
            self._transport.write(data)

    def stream(self, chunks: Iterator[bytes]) -> None:
        """Write a reply of *chunks*; lines and events wait behind it."""
        self._reply = chunks
        self._transport.pause_reading()
        self._write_reply()

    def close(self) -> None:
        """Take no more lines; close once everything sent is written."""
        self._closing = True
        if self._reply is None:
            self._transport.close()

    def abort(self) -> None:
        """Drop the connection and whatever it has not written."""
        self._transport.abort()

    def _take_lines(self) -> None:
        """Dispatch the complete lines received, while nothing holds them."""
        buffer, start = self._buffer, 0
        while not (self._paused or self._closing or self._reply is not None):
            end = buffer.find(b"\n", start)
            if end < 0:
                if len(buffer) - start > MAX_LINE:
                    self._refuse_long_line()
                elif self._eof:
                    # An unterminated line at EOF: the peer died (or was
                    # killed) mid-write.  A torn trailing line is
                    # truncation, not a protocol error: drop it
                    # silently; the sender never saw an ack for it and
                    # will re-send after reconnecting.
                    self.close()
                break
            line_start, start = start, end + 1
            if end - line_start > MAX_LINE:
                self._refuse_long_line()
                break
            line = buffer[line_start:end].strip()
            if line:
                self._service._dispatch(line, self)
        self._buffer = b"" if self._closing else buffer[start:]

    def _refuse_long_line(self) -> None:
        # What follows it cannot be framed: answer, count, close.
        self._service._m_protocol_errors.inc()
        self.send({"event": EV_ERROR, "detail": "request line too long"})
        self.close()

    def _resume(self) -> None:
        """Carry on where a pause left off: the reply, then the lines."""
        if self._paused:
            return
        if self._reply is not None:
            self._write_reply()
        elif not self._closing:
            if not self._eof:
                self._transport.resume_reading()
            self._take_lines()

    def _write_reply(self) -> None:
        """Write the reply's next chunk; after the last, what it held."""
        try:
            chunk = next(self._reply, None)
        except Exception:
            # The reply's line is torn, and no line after it could be
            # framed: close the connection and report the error.
            self._reply = None
            self.close()
            raise
        if chunk is not None:
            self._transport.write(chunk)
            # One chunk per loop turn: other clients are served between.
            self._loop.call_soon(self._resume)
            return
        self._reply = None
        held, self._held = self._held, []
        if held:
            self._transport.write(b"".join(held))
        if self._closing:
            self._transport.close()
        else:
            self._resume()


class AuditService:
    """The audit daemon: TCP + HTTP front end over a :class:`ShardRouter`."""

    def __init__(
        self,
        router: ShardRouter,
        host: str = "127.0.0.1",
        port: int = 0,
        http_port: Optional[int] = 0,
        control=None,
    ):
        """``port``/``http_port`` of 0 bind an ephemeral port (read the
        chosen one back from :attr:`port`/:attr:`http_port` after
        :meth:`start`); ``http_port=None`` disables the HTTP endpoint.

        ``control`` mounts a
        :class:`~repro.control.api.ControlPlane` under ``/api/`` on the
        HTTP listener (duck-typed: anything with a
        ``handle(method, path, query, body)`` triple-return works).
        Without one, ``/api/*`` answers 404."""
        self.router = router
        self._control = control
        self._host = host
        self._port_requested = port
        self._http_port_requested = http_port
        self.port: Optional[int] = None
        self.http_port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ticker: Optional[asyncio.Task] = None
        self._connections: set[_Client] = set()
        self._drained: Optional[DrainReport] = None
        self._drain_lock = asyncio.Lock()
        tel = router._tel
        self._tel = tel
        self._m_connections = tel.registry.counter(
            "serve_connections_total", "client connections accepted"
        )
        self._m_protocol_errors = tel.registry.counter(
            "serve_protocol_errors_total", "request lines rejected"
        )

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Start the router and listeners.

        A router with a write-ahead log first resumes its store + WAL
        (:meth:`ShardRouter.start`): the listeners only open once that
        replay is done, so clients never race a half-rebuilt monitor.
        """
        self._loop = asyncio.get_running_loop()
        # The loop's socket reads allocate 256 KiB buffers.  glibc maps
        # any block above its mmap threshold (128 KiB until a larger
        # mapped block has been freed) afresh, so every read would map,
        # fault in and unmap its buffer.  Freeing one 1 MiB block lifts
        # the threshold past that for the life of the process.
        bytes(1 << 20)
        self.router.start()
        self._server = await self._loop.create_server(
            lambda: _Client(self), self._host, self._port_requested
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self._http_port_requested is not None:
            self._http_server = await asyncio.start_server(
                self._on_http, self._host, self._http_port_requested
            )
            self.http_port = self._http_server.sockets[0].getsockname()[1]
        self._ticker = asyncio.create_task(self._tick())
        self._tel.events.emit(
            SERVE_STARTED,
            host=self._host,
            port=self.port,
            http_port=self.http_port,
        )

    async def _tick(self) -> None:
        interval = self.router.config.flush_interval_s
        while True:
            await asyncio.sleep(interval)
            try:
                self.router.flush()
                if self.router.wal_enabled:
                    # Bound WAL lag: records buffered since the last
                    # batch fsync become durable at least once per tick.
                    await asyncio.get_running_loop().run_in_executor(
                        None, self.router.wal_commit
                    )
            except Exception as error:
                # A full disk may clear; the timer must outlive it, and
                # the next tick retries whatever this one left buffered.
                self._tel.events.emit(
                    SERVE_TICK_FAILED, error=f"{type(error).__name__}: {error}"
                )

    async def drain(self) -> DrainReport:
        """Graceful shutdown; safe to call more than once.  A client that
        has not taken its finals :data:`DRAIN_CLOSE_S` later is aborted."""
        async with self._drain_lock:
            if self._drained is not None:
                return self._drained
            if self._ticker is not None:
                self._ticker.cancel()
            for server in (self._server, self._http_server):
                if server is not None:
                    # Not ``wait_closed()``: since Python 3.12.1 it waits
                    # for every client to disconnect, while each client
                    # is waiting for its finals.
                    server.close()
            # The store writer's last commit and integrity check take
            # time — keep the loop responsive.
            report = await asyncio.get_running_loop().run_in_executor(
                None, self.router.drain
            )
            clients = list(self._connections)
            for client in clients:
                # Only the cases this client touched, one record at a
                # time; with nobody connected no record is built at all.
                for final in self.router.iter_results(sorted(client.cases)):
                    client.send({"event": EV_FINAL, **final})
                client.send({"event": EV_BYE, "reason": "drained"})
                client.close()
            if clients:
                _, late = await asyncio.wait(
                    [client.closed for client in clients],
                    timeout=DRAIN_CLOSE_S,
                )
                if late:
                    # Their write buffers never emptied: they do not read.
                    for client in clients:
                        if not client.closed.done():
                            client.abort()
                    await asyncio.wait(late)
            self._drained = report
            return report

    # -- the JSON-lines endpoint -------------------------------------------
    def _dispatch(self, line: bytes, conn: _Client) -> None:
        """Handle one request line, stripped of surrounding whitespace."""
        try:
            message = decode_message(line)
            op = message.get("op")
            if op == OP_ENTRY:
                entry = entry_from_message(message)
                seq = entry_seq(message)
                admission = self.router.submit(
                    entry,
                    conn.send,
                    traceparent=message.get("traceparent"),
                    seq=seq,
                    line=line,
                )
                if admission.accepted:
                    conn.cases.add(entry.case)
                    conn.entries_sent += 1
                else:
                    response = {
                        "event": EV_BUSY,
                        "case": entry.case,
                        "reason": admission.reason,
                    }
                    if seq is not None:
                        response["seq"] = seq
                    if admission.duplicate:
                        # An idempotent re-send: acknowledged, already
                        # accepted — nothing to retry.
                        response["duplicate"] = True
                        conn.cases.add(entry.case)
                    else:
                        response["retry_after_s"] = admission.retry_after_s
                    conn.send(response)
            elif op == OP_XES:
                document = message.get("document")
                if not isinstance(document, str):
                    raise ProtocolError("xes op needs a 'document' string")
                try:
                    trail = import_xes(document, self.router.dead_letters)
                except XesError as error:
                    raise ProtocolError(f"bad XES document: {error}") from error
                traceparent = message.get("traceparent")
                for entry in trail:
                    # In order, each admitted as an `entry` op would be.
                    # Unnumbered entries are only refused by a failed
                    # store, which refuses for good: the document errors
                    # out.
                    admission = self.router.submit(
                        entry, conn.send, traceparent=traceparent
                    )
                    if not admission.accepted:
                        raise ReproError(admission.reason)
                    conn.cases.add(entry.case)
                    conn.entries_sent += 1
            elif op == OP_SYNC:
                token, received = message.get("id"), conn.entries_sent
                self.router.barrier(lambda: self._sync(conn, token, received))
            elif op == OP_STATUS:
                conn.send(
                    {"event": EV_STATUS, **self.router.statistics()}
                )
            elif op == OP_RESULTS:
                self._send_results(conn, message)
            elif op == OP_BYE:
                conn.send({"event": EV_BYE, "reason": "requested"})
                conn.close()
            else:
                raise ProtocolError(f"unknown op {op!r}")
        except (ProtocolError, ReproError) as error:
            # One bad line costs one line: report it, dead-letter it,
            # keep the stream live.
            self._m_protocol_errors.inc()
            self.router.dead_letters.add(
                source="serve",
                reason=str(error),
                raw=line.decode("utf-8", "replace"),
            )
            conn.send({"event": EV_ERROR, "detail": str(error)})

    def _sync(self, conn: _Client, token, received: int) -> None:
        """The ``sync`` op once its barrier passed: on a durable router,
        make the entries durable off the loop (:meth:`ShardRouter.sync`),
        then send ``synced`` (or the error that stopped it); the
        connection keeps streaming meanwhile.  Otherwise every entry is
        replayed already, and ``synced`` goes at once."""
        assert self._loop is not None
        synced = {"event": EV_SYNCED, "id": token, "received": received}
        if not self.router.durable:
            conn.send(synced)
            return

        def committed(future: asyncio.Future) -> None:
            error = future.exception()
            if error is None:
                conn.send(synced)
            else:
                conn.send(
                    {"event": EV_ERROR, "detail": f"sync failed: {error}"}
                )

        commit = self._loop.run_in_executor(None, self.router.sync)
        commit.add_done_callback(committed)

    def _send_results(self, conn: _Client, message: dict) -> None:
        """The ``results`` op: barrier, then the per-case final word.

        The reply streams: records are built chunk by chunk as the
        connection writes them, so memory holds one chunk, not the whole
        reply.  The connection takes its next line only once the reply
        is written: the reply covers every entry sent before ``results``
        and none sent after.
        """
        wanted = message.get("cases")
        passed: list[Iterator[dict]] = []
        self.router.barrier(
            lambda: passed.append(
                self.router.iter_results(
                    wanted if isinstance(wanted, list) else None
                )
            )
        )
        conn.stream(encode_results(passed[0]))

    # -- the HTTP endpoint ---------------------------------------------------
    #: ``application/json`` always carries its charset and JSON
    #: responses are never cacheable — verdicts and quarantine lists
    #: change under the reader's feet (`Cache-Control: no-store`).
    _JSON = "application/json; charset=utf-8"
    _STATUS_LINES = {
        200: "200 OK",
        400: "400 Bad Request",
        404: "404 Not Found",
        405: "405 Method Not Allowed",
        409: "409 Conflict",
        503: "503 Service Unavailable",
    }

    def _http_body(self, path: str) -> tuple[str, str, bytes]:
        """``(status line, content type, body)`` for one GET/HEAD path."""
        if path == "/healthz":
            stats = self.router.statistics()
            if stats["store"]["error"] is not None:
                # Entries are refused while no thread can store them.
                status_line, status = "503 Service Unavailable", "store-failed"
            else:
                status_line, status = "200 OK", "ok"
            return (
                status_line,
                self._JSON,
                json.dumps({"status": status, **stats}).encode(),
            )
        if path == "/metrics":
            self.router.refresh_gauges()
            return (
                "200 OK",
                "text/plain; version=0.0.4",
                to_prometheus(self._tel.registry).encode(),
            )
        if path == "/metrics.json":
            # The machine-readable snapshot `repro top` samples: same
            # shape as `--metrics` (documented in docs/observability.md).
            self.router.refresh_gauges()
            return (
                "200 OK",
                self._JSON,
                json.dumps(to_json(self._tel.registry)).encode(),
            )
        return "404 Not Found", self._JSON, b'{"error": "not found"}\n'

    async def _handle_api(
        self, method: str, target: str, raw_body: bytes
    ) -> tuple[str, str, bytes, str]:
        """Dispatch ``/api/*`` to the mounted control plane.

        Returns ``(status line, content type, body, extra headers)``.
        The handler runs in an executor — it reads the store and may
        replay a case (requeue), neither of which may stall the loop.
        """
        from urllib.parse import parse_qs, urlsplit

        if self._control is None:
            return (
                "404 Not Found",
                self._JSON,
                b'{"error": "no control plane mounted"}\n',
                "",
            )
        split = urlsplit(target)
        query = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        body = None
        if raw_body:
            try:
                body = json.loads(raw_body)
            except (ValueError, RecursionError):
                self._m_protocol_errors.inc()
                return (
                    "400 Bad Request",
                    self._JSON,
                    b'{"error": "request body is not valid JSON"}\n',
                    "",
                )
        status, payload, headers = await asyncio.get_running_loop().run_in_executor(
            None, self._control.handle, method, split.path, query, body
        )
        extra = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        status_line = self._STATUS_LINES.get(status, f"{status} Status")
        return (
            status_line,
            self._JSON,
            (json.dumps(payload) + "\n").encode(),
            extra,
        )

    async def _on_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            content_length = 0
            try:
                request = await reader.readline()
                while True:  # headers: only Content-Length matters to us
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = header.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        try:
                            content_length = int(value.strip())
                        except ValueError:
                            content_length = 0
            except ValueError:  # a line longer than the StreamReader limit
                self._m_protocol_errors.inc()
                request = None
            parts = request.decode("latin-1").split() if request else []
            extra = ""
            if request is None:
                status, ctype = "400 Bad Request", self._JSON
                body = b'{"error": "request line or header too long"}\n'
                method = "GET"
            elif not 0 <= content_length <= MAX_HTTP_BODY:
                # Refused unread: the connection closes after the reply.
                self._m_protocol_errors.inc()
                if content_length < 0:
                    status = "400 Bad Request"
                    body = b'{"error": "negative Content-Length"}\n'
                else:
                    status = "413 Content Too Large"
                    body = b'{"error": "request body too large"}\n'
                ctype, method = self._JSON, "GET"
            elif len(parts) < 2:
                status, ctype = "400 Bad Request", self._JSON
                body = b'{"error": "malformed request line"}\n'
                method = "GET"
            else:
                method, target = parts[0].upper(), parts[1]
                raw_body = (
                    await reader.readexactly(content_length)
                    if content_length
                    else b""
                )
                if target.startswith("/api/"):
                    if method in ("GET", "HEAD", "POST"):
                        status, ctype, body, extra = await self._handle_api(
                            method, target, raw_body
                        )
                    else:
                        status, ctype = "405 Method Not Allowed", self._JSON
                        body = b'{"error": "method not allowed"}\n'
                        extra = "Allow: GET, HEAD, POST\r\n"
                elif method in ("GET", "HEAD"):
                    status, ctype, body = self._http_body(target.split("?")[0])
                else:
                    status, ctype = "405 Method Not Allowed", self._JSON
                    body = b'{"error": "method not allowed"}\n'
                    extra = "Allow: GET, HEAD\r\n"
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Cache-Control: no-store\r\n"
                    f"{extra}"
                    "Connection: close\r\n\r\n"
                ).encode()
                # HEAD answers with the same headers and no body.
                + (b"" if method == "HEAD" else body)
            )
            await writer.drain()
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
