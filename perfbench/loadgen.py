"""The load generator: one TCP connection to the daemon, two threads.

The calling thread sends; one receiver thread timestamps every server
event as it arrives and, beside the stream, runs the reads ``repro top``
makes per refresh over a second (HTTP) connection, with non-blocking
sockets so a slow read never delays event timestamps.  The sender never
waits on a read.
"""

from __future__ import annotations

import json
import resource
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from daemonctl import BenchError, parse_response
from spans import clock

#: What ``repro top`` reads per refresh, in its order, less ``/healthz``:
#: during ingest its handler intermittently dies on a race with the shard
#: threads (``OnlineMonitor.statistics`` iterates a dict they grow), so a
#: run's failure count would depend on thread timing, not on its inputs.
CONSOLE_PATHS = ("/metrics.json", "/api/v1/tenants")


class _Console:
    """A fixed number of console refreshes on a fixed cadence, one GET
    (one connection) at a time.  A refresh that falls behind runs late
    rather than being skipped, so every run makes the same reads."""

    def __init__(self, host: str, port: int, interval_s: float, refreshes: int,
                 start: float):
        self._address = (host, port)
        self._interval = interval_s
        self._due = start
        self._refreshes = refreshes  # refreshes not yet begun
        self._pending: list[str] = []
        self._sock: Optional[socket.socket] = None
        self._path = ""
        self._started = 0.0
        self._response = bytearray()
        self.reads: list[tuple[str, float, int]] = []  # path, seconds, status

    @property
    def done(self) -> bool:
        return not (self._refreshes or self._pending or self._sock is not None)

    def timeout(self, now: float) -> Optional[float]:
        if self._sock is not None or self.done:
            return None
        return 0.0 if self._pending else max(0.0, self._due - now)

    def tick(self, selector: selectors.BaseSelector, now: float) -> None:
        if self._sock is not None:
            return
        if not self._pending and self._refreshes and now >= self._due:
            self._pending = list(CONSOLE_PATHS)
            self._due += self._interval
            self._refreshes -= 1
        if self._pending:
            self._path = self._pending.pop(0)
            self._sock = socket.socket()
            self._sock.setblocking(False)
            self._sock.connect_ex(self._address)
            self._started = clock()
            self._response = bytearray()
            selector.register(self._sock, selectors.EVENT_WRITE, self)

    def io(self, selector: selectors.BaseSelector, mask: int) -> None:
        sock = self._sock
        if mask & selectors.EVENT_WRITE:
            sock.sendall(f"GET {self._path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
            selector.modify(sock, selectors.EVENT_READ, self)
            return
        try:
            chunk = sock.recv(1 << 16)
        except OSError:
            chunk = b""
        if chunk:
            self._response += chunk
            return
        selector.unregister(sock)
        sock.close()
        self._sock = None
        status, _ = parse_response(bytes(self._response))
        self.reads.append((self._path, clock() - self._started, status))

    def close(self) -> None:
        """Drop a read still in flight (the stream has ended)."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None


@dataclass
class Received:
    """What the receiver thread saw, each event stamped on arrival."""

    first_verdict: dict[str, float] = field(default_factory=dict)
    synced: dict[int, float] = field(default_factory=dict)
    refused: int = 0
    errors: int = 0
    results: Optional[dict] = None


class StreamClient:
    """One connection: ``send``/``sync``/``results``/``bye`` from the
    calling thread, every event received on the receiver thread.

    *console* is ``(interval_s, refreshes)`` for a watched stream."""

    def __init__(self, host: str, port: int, http_port: int,
                 console: Optional[tuple[float, int]] = None):
        self.sock = socket.create_connection((host, port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.seen = Received()
        self._host = host
        self._http_port = http_port
        self._console_plan = console
        self.console: Optional[_Console] = None
        self._cond = threading.Condition()
        self._closed = False
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._receive, name="bench-receiver")

    def start(self) -> None:
        if self._console_plan is not None:
            interval_s, refreshes = self._console_plan
            self.console = _Console(
                self._host, self._http_port, interval_s, refreshes, clock()
            )
        self._thread.start()

    # -- sending ---------------------------------------------------------
    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def _wait(self, predicate, timeout_s: float):
        with self._cond:
            if not self._cond.wait_for(
                lambda: predicate() or self._closed, timeout_s
            ) or not predicate():
                raise BenchError(f"daemon stopped answering ({self._error})")

    def sync(self, token: int, timeout_s: float = 120.0) -> float:
        """Send a ``sync`` barrier and wait for its ``synced``; returns
        the arrival time."""
        self.send(b'{"op":"sync","id":%d}\n' % token)
        self._wait(lambda: token in self.seen.synced, timeout_s)
        return self.seen.synced[token]

    def finish_console(self, timeout_s: float = 120.0) -> None:
        """Wait until the console has made its last read."""
        if self.console is not None:
            self._wait(lambda: self.console.done, timeout_s)

    def results(self) -> dict:
        self.send(b'{"op":"results"}\n')
        self._wait(lambda: self.seen.results is not None, 120.0)
        return self.seen.results

    def bye(self) -> None:
        """Say ``bye`` and wait for the server to close."""
        self.send(b'{"op":"bye"}\n')
        self._thread.join(timeout=120)
        self.sock.close()
        if self._thread.is_alive():
            raise BenchError("receiver did not finish after bye")

    def close(self) -> None:
        self.sock.close()
        self._thread.join(timeout=10)

    # -- receiving -------------------------------------------------------
    def _receive(self) -> None:
        selector = selectors.DefaultSelector()
        selector.register(self.sock, selectors.EVENT_READ, None)
        buffer = bytearray()
        try:
            while True:
                now = clock()
                timeout = self.console.timeout(now) if self.console else None
                for key, mask in selector.select(timeout):
                    if key.data is not None:
                        key.data.io(selector, mask)
                        continue
                    chunk = self.sock.recv(1 << 20)
                    arrived = clock()
                    if not chunk:
                        return
                    scan = len(buffer)
                    buffer += chunk
                    start = 0
                    while True:
                        end = buffer.find(b"\n", max(scan, start))
                        if end < 0:
                            break
                        self._event(bytes(buffer[start:end]), arrived)
                        start = end + 1
                    del buffer[:start]
                if self.console is not None:
                    self.console.tick(selector, clock())
                    if self.console.done:
                        with self._cond:
                            self._cond.notify_all()
        except OSError as error:
            self._error = error
        finally:
            if self.console is not None:
                self.console.close()
            selector.close()
            with self._cond:
                self._closed = True
                self._cond.notify_all()

    def _event(self, line: bytes, arrived: float) -> None:
        event = json.loads(line)
        kind = event.get("event")
        seen = self.seen
        if kind == "verdict":
            seen.first_verdict.setdefault(event["case"], arrived)
            return
        if kind == "busy":
            if not event.get("duplicate"):
                seen.refused += 1
            return
        if kind == "error":
            seen.errors += 1
            return
        with self._cond:
            if kind == "synced":
                seen.synced[event["id"]] = arrived
            elif kind == "results":
                seen.results = event["cases"]
            self._cond.notify_all()


def cpu_s() -> float:
    """This process's user + system CPU seconds (both threads)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Sent:
    """When the sender put each case's first entry on the wire (or was
    due to), plus the sender's own timing."""

    first_send: float
    case_first: dict[str, float]
    probes: dict[int, float] = field(default_factory=dict)  # id -> due
    late: list[float] = field(default_factory=list)  # per entry: sent - due
    own_late: list[float] = field(default_factory=list)  # per batch, sender's fault
    send_s: float = 0.0


def send_saturated(client: StreamClient, lines: list[bytes], cases: list[str],
                   block_bytes: int = 1 << 16) -> Sent:
    """Send everything as fast as TCP flow control allows."""
    case_first: dict[str, float] = {}
    first = clock()
    send_s = 0.0
    index = 0
    while index < len(lines):
        block_end = index
        size = 0
        while block_end < len(lines) and size < block_bytes:
            size += len(lines[block_end])
            block_end += 1
        started = clock()
        client.send(b"".join(lines[index:block_end]))
        send_s += clock() - started
        for case in cases[index:block_end]:
            case_first.setdefault(case, started)
        index = block_end
    return Sent(first_send=first, case_first=case_first, send_s=send_s)


def send_open_loop(client: StreamClient, lines: list[bytes], cases: list[str],
                   rate: float, probe_every: int) -> Sent:
    """Send entry *i* at ``start + i / rate`` whatever the daemon does,
    with a ``sync`` probe after every *probe_every* entries.  Latencies
    count from the due time, so a stall also charges the entries queued
    behind it."""
    start = clock() + 0.05
    sent = Sent(first_send=start, case_first={})
    free_at = start  # when the sender was last ready to send
    index = 0
    total = len(lines)
    while index < total:
        due = start + index / rate
        now = clock()
        if now < due:
            time.sleep(due - now)
            now = clock()
        sent.own_late.append(now - max(due, free_at))
        batch = []
        end = index
        while end < total and start + end / rate <= now:
            batch.append(lines[end])
            sent.case_first.setdefault(cases[end], start + end / rate)
            if (end + 1) % probe_every == 0:
                token = (end + 1) // probe_every
                batch.append(b'{"op":"sync","id":%d}\n' % token)
                sent.probes[token] = start + end / rate
            end += 1
        client.send(b"".join(batch))
        free_at = clock()
        sent.send_s += free_at - now
        sent.late.extend(now - (start + i / rate) for i in range(index, end))
        index = end
    return sent
