"""The asyncio audit daemon (``repro serve``).

:class:`AuditService` wraps a :class:`~repro.serve.core.ShardRouter`
with the network surface:

* a **TCP JSON-lines endpoint** speaking :mod:`repro.serve.protocol` —
  clients stream ``entry``/``xes`` operations and receive per-case
  ``verdict`` events as transitions happen;
* a minimal **HTTP endpoint** (GET/HEAD; anything else is a clean 405)
  with ``/healthz`` (liveness + a statistics snapshot including
  per-shard queue depth and in-flight cases), ``/metrics`` (Prometheus
  text format from the telemetry registry), and ``/metrics.json`` (the
  JSON snapshot ``repro top`` samples);
* a **flush timer** committing buffered entries to the audit store
  every ``flush_interval_s``;
* **graceful drain**: on SIGTERM (wired by the CLI) the service stops
  accepting input, lets every shard finish, flushes and
  integrity-checks the store, then sends each connected client the
  ``final`` verdict of every case it touched and a ``bye``.

Thread/loop topology: the event loop owns all sockets; shard threads
call back via ``loop.call_soon_threadsafe`` into per-connection outbox
queues, so writers are only ever touched from the loop.  Nothing on the
loop blocks on a shard queue: a refused entry is answered ``busy``, and
a refused ``xes`` entry or barrier waits out
:data:`~repro.serve.core.RETRY_AFTER_S` with ``asyncio.sleep``, so only
its own connection waits.
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
    to_json,
    to_prometheus,
)
from repro.serve.core import RETRY_AFTER_S, DrainReport, ShardRouter
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


class _Connection:
    """One client: an outbox queue pumped to the writer by a loop task.

    ``post`` is the thread-safe face shard threads see; ``send`` is the
    loop-side fast path.  After ``close`` both become no-ops — verdicts
    for a disconnected client are simply dropped (the store and the
    ``results`` op are the durable record).  ``stream`` queues a reply
    written chunk by chunk; whatever is queued behind it waits, so no
    event ever splits its line.
    """

    def __init__(
        self, loop: asyncio.AbstractEventLoop, writer: asyncio.StreamWriter
    ):
        self._loop = loop
        self._writer = writer
        #: messages, ``(chunks, done)`` streamed replies, and the close
        #: sentinel ``None``
        self._outbox: asyncio.Queue = asyncio.Queue()
        self._closed = False
        self.entries_sent = 0
        self.cases: set[str] = set()
        self.pump_task: Optional[asyncio.Task] = None

    def send(self, message: dict) -> None:
        if not self._closed:
            self._outbox.put_nowait(message)

    def post(self, message: dict) -> None:
        """Thread-safe send (used as the router's subscriber)."""
        if self._closed:
            return
        try:
            self._loop.call_soon_threadsafe(self.send, message)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    async def stream(self, chunks: Iterator[bytes]) -> None:
        """Queue a reply of *chunks*; return once it is written or the
        connection is gone (raises if producing a chunk failed)."""
        if self._closed:
            return
        done = self._loop.create_future()
        self._outbox.put_nowait((chunks, done))
        await done

    async def pump(self) -> None:
        reply: Optional[asyncio.Future] = None
        try:
            while True:
                item = await self._outbox.get()
                if item is None:
                    # The close sentinel — everything queued before it has
                    # been written, so a `bye` response is never dropped by
                    # the close racing the pump.
                    return
                if not isinstance(item, tuple):
                    self._writer.write(encode_message(item))
                    await self._writer.drain()
                    continue
                chunks, reply = item
                try:
                    for chunk in chunks:
                        self._writer.write(chunk)
                        await self._writer.drain()
                        # drain() returns at once below the high-water
                        # mark: yield anyway, one chunk per loop turn.
                        await asyncio.sleep(0)
                except (ConnectionResetError, BrokenPipeError):
                    raise
                except Exception as error:
                    # The reply's line is torn: the reader re-raises the
                    # error and its handler closes the connection.
                    self._closed = True
                    if not reply.done():
                        reply.set_exception(error)
                    return
                if not reply.done():
                    reply.set_result(None)
        except (ConnectionResetError, BrokenPipeError):
            self._closed = True
        finally:
            # Release every reader still waiting on a reply that will
            # not be written now.
            pending = [reply]
            while not self._outbox.empty():
                item = self._outbox.get_nowait()
                if isinstance(item, tuple):
                    pending.append(item[1])
            for done in pending:
                if done is not None and not done.done():
                    done.set_result(None)

    def close(self) -> None:
        self._closed = True
        self._outbox.put_nowait(None)


class AuditService:
    """The audit daemon: TCP + HTTP front end over a shard router."""

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
        self._connections: set[_Connection] = set()
        #: live ``_on_client`` tasks — drain reaps them so none outlive
        #: the loop (a destroyed-pending handler corrupts interpreter
        #: state for whatever runs next in this process)
        self._client_tasks: set[asyncio.Task] = set()
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
        self._server = await asyncio.start_server(
            self._on_client, self._host, self._port_requested
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
            shards=len(self.router.shard_names),
        )

    async def _tick(self) -> None:
        interval = self.router.config.flush_interval_s
        while True:
            await asyncio.sleep(interval)
            self.router.flush()
            if self.router.wal_enabled:
                # Bound WAL lag: records buffered since the last batch
                # fsync become durable at least once per tick.
                await asyncio.get_running_loop().run_in_executor(
                    None, self.router.wal_commit
                )

    async def drain(self) -> DrainReport:
        """Graceful shutdown; safe to call more than once."""
        async with self._drain_lock:
            if self._drained is not None:
                return self._drained
            if self._ticker is not None:
                self._ticker.cancel()
            for server in (self._server, self._http_server):
                if server is not None:
                    server.close()
                    await server.wait_closed()
            # The router joins threads — keep the loop responsive.
            report = await asyncio.get_running_loop().run_in_executor(
                None, self.router.drain
            )
            for conn in list(self._connections):
                # Only the cases this client touched, one record at a
                # time; with nobody connected no record is built at all.
                for final in self.router.iter_results(sorted(conn.cases)):
                    conn.send({"event": EV_FINAL, **final})
                conn.send({"event": EV_BYE, "reason": "drained"})
                conn.close()
            # Reap every client handler before the loop can go away: a
            # pending task destroyed with its loop raises into whatever
            # the interpreter is doing next (ast.parse has been seen to
            # fail with SystemError mid-import).
            tasks = [t for t in self._client_tasks if not t.done()]
            for t in tasks:
                t.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._drained = report
            return report

    # -- the JSON-lines endpoint -------------------------------------------
    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        assert self._loop is not None
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
            task.add_done_callback(self._client_tasks.discard)
        conn = _Connection(self._loop, writer)
        self._connections.add(conn)
        self._m_connections.inc()
        self._tel.events.emit(SERVE_CLIENT, phase="connect")
        conn.send(
            {
                "event": EV_HELLO,
                "version": PROTOCOL_VERSION,
                "shards": len(self.router.shard_names),
            }
        )
        conn.pump_task = asyncio.create_task(conn.pump())
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Longer than the StreamReader limit.  The reader
                    # dropped what it buffered, so the stream cannot be
                    # resynchronised: answer, count, close.
                    self._m_protocol_errors.inc()
                    conn.send(
                        {"event": EV_ERROR, "detail": "request line too long"}
                    )
                    break
                if not line:
                    break
                if not line.endswith(b"\n"):
                    # readline only returns an unterminated line at EOF:
                    # the peer died (or was killed) mid-write.  A torn
                    # trailing line is truncation, not a protocol error —
                    # drop it silently; the sender never saw an ack for
                    # it and will re-send after reconnecting.
                    break
                if not line.strip():
                    continue
                if not await self._dispatch(line, conn):
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass  # mid-stream disconnect: the stream state survives
        finally:
            self._connections.discard(conn)
            self._tel.events.emit(
                SERVE_CLIENT, phase="disconnect", entries=conn.entries_sent
            )
            conn.close()
            if conn.pump_task is not None:
                try:
                    await asyncio.wait_for(conn.pump_task, timeout=1.0)
                except (asyncio.TimeoutError, asyncio.CancelledError):
                    conn.pump_task.cancel()
                except RuntimeError:
                    # This coroutine is being closed (GeneratorExit) or
                    # the loop is already gone — awaiting is impossible;
                    # cancel and let the loop's own teardown reap it.
                    try:
                        conn.pump_task.cancel()
                    except RuntimeError:
                        pass  # loop closed: nothing left to schedule on
            writer.close()
            try:
                # wait_closed can hang on abruptly-reset peers (fixed in
                # 3.12); bound it, and absorb the cancellation a shutting
                # down loop delivers here — this is already cleanup.
                await asyncio.wait_for(writer.wait_closed(), timeout=1.0)
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.TimeoutError,
                asyncio.CancelledError,
                RuntimeError,
            ):
                pass

    async def _dispatch(self, line: bytes, conn: _Connection) -> bool:
        """Handle one request line; False ends the connection politely."""
        try:
            message = decode_message(line)
            op = message.get("op")
            if op == OP_ENTRY:
                entry = entry_from_message(message)
                seq = entry_seq(message)
                admission = self.router.submit(
                    entry,
                    conn.post,
                    traceparent=message.get("traceparent"),
                    seq=seq,
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
                    # In order, each admitted as an `entry` op would be;
                    # a refused entry waits out its retry hint here, so a
                    # full shard queue never blocks the loop.  A failed
                    # store refuses for good: the document errors out.
                    while not (
                        admission := self.router.submit(
                            entry, conn.post, traceparent=traceparent
                        )
                    ).accepted:
                        if self.router.store_error is not None:
                            raise ReproError(admission.reason)
                        await asyncio.sleep(RETRY_AFTER_S)
                    conn.cases.add(entry.case)
                    conn.entries_sent += 1
            elif op == OP_SYNC:
                token = message.get("id")
                received = conn.entries_sent
                conn_post = conn.post
                router = self.router

                def synced() -> None:
                    # The durability half of the barrier: entries are
                    # only *durably* acknowledged once their WAL records
                    # are fsynced (runs on a shard thread, off the loop).
                    router.wal_commit()
                    conn_post(
                        {"event": EV_SYNCED, "id": token, "received": received}
                    )

                # A full shard queue refuses the barrier; wait it out
                # here, off the loop's other connections.
                while not self.router.barrier(synced):
                    await asyncio.sleep(RETRY_AFTER_S)
            elif op == OP_STATUS:
                conn.send(
                    {"event": EV_STATUS, **self.router.statistics()}
                )
            elif op == OP_RESULTS:
                await self._send_results(conn, message)
            elif op == OP_BYE:
                conn.send({"event": EV_BYE, "reason": "requested"})
                return False
            else:
                raise ProtocolError(f"unknown op {op!r}")
        except (ProtocolError, ReproError) as error:
            # One bad line costs one line: report it, dead-letter it,
            # keep the stream live.
            self._m_protocol_errors.inc()
            self.router.dead_letters.add(
                source="serve",
                reason=str(error),
                raw=line.decode("utf-8", "replace").strip(),
            )
            conn.send({"event": EV_ERROR, "detail": str(error)})
        return True

    async def _send_results(self, conn: _Connection, message: dict) -> None:
        """The ``results`` op: barrier, then the per-case final word.

        The reply streams: records are built chunk by chunk as the
        connection's pump writes them, so memory holds one chunk, not
        the whole reply.  This returns when the reply is written, and
        the reader only then takes this connection's next line: the
        reply covers every entry sent before ``results`` and none sent
        after.
        """
        assert self._loop is not None
        settled: asyncio.Future = self._loop.create_future()
        while not self.router.barrier(
            lambda: self._loop.call_soon_threadsafe(
                lambda: settled.done() or settled.set_result(None)
            )
        ):
            await asyncio.sleep(RETRY_AFTER_S)
        await settled
        wanted = message.get("cases")
        records = self.router.iter_results(
            wanted if isinstance(wanted, list) else None
        )
        await conn.stream(encode_results(records))

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
            self.router.refresh_shard_gauges()
            return (
                "200 OK",
                "text/plain; version=0.0.4",
                to_prometheus(self._tel.registry).encode(),
            )
        if path == "/metrics.json":
            # The machine-readable snapshot `repro top` samples: same
            # shape as `--metrics` (documented in docs/observability.md).
            self.router.refresh_shard_gauges()
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
        wait on a shard (requeue), neither of which may stall the loop.
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
            except ValueError:
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
