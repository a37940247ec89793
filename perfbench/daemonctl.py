"""Run the program as a user would: CLI commands and the ``repro serve``
daemon, each a child process of the benchmark.

Every child gets ``src`` on ``PYTHONPATH`` and a ``TMPDIR`` inside the
run's work directory, so nothing is read or written outside the checkout.
With a spans path, the child runs under ``launch.py`` and records spans.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from spans import clock

HERE = Path(__file__).resolve().parent

#: The daemon every stream workload drives (``--store``/``--wal-dir``
#: are added per run).
SERVE_FLAGS = ("--scenario", "paper", "--compiled", "--shards", "2")


class BenchError(Exception):
    """The program misbehaved in a way that voids the run."""


def _argv(command: list[str], spans_path: Optional[Path]) -> list[str]:
    if spans_path is None:
        return [sys.executable, "-m", "repro.cli", *command]
    return [sys.executable, str(HERE / "launch.py"), str(spans_path), "--", *command]


def _env(root: Path, tmp: Path) -> dict:
    tmp.mkdir(parents=True, exist_ok=True)
    return {**os.environ, "PYTHONPATH": str(root / "src"), "TMPDIR": str(tmp)}


@dataclass
class Finished:
    """One CLI command's outcome."""

    spawned: float
    wall_s: float
    cpu_s: float  # user + system
    code: int
    stdout: str
    peak_rss_kb: int


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run_command(root: Path, work: Path, command: list[str],
                spans_path: Optional[Path] = None, timeout_s: int = 150) -> Finished:
    """Run one ``repro`` command to completion; wall time from spawn to
    reaping, peak RSS from the kernel's accounting of the child."""
    out_path = work / "command.out"
    previous = signal.signal(signal.SIGALRM, _alarm)
    with open(out_path, "wb") as out:
        spawned = clock()
        process = subprocess.Popen(
            _argv(command, spans_path), stdout=out, stderr=subprocess.STDOUT,
            env=_env(root, work / "tmp"), cwd=root,
        )
        signal.alarm(timeout_s)
        try:
            _, status, usage = os.wait4(process.pid, 0)
            ended = clock()
        except _Timeout:
            process.kill()
            process.wait()
            raise BenchError(f"repro {command[0]} exceeded {timeout_s}s")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    process.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        spawned=spawned,
        wall_s=ended - spawned,
        cpu_s=usage.ru_utime + usage.ru_stime,
        code=process.returncode,
        stdout=out_path.read_text(),
        peak_rss_kb=usage.ru_maxrss,
    )


def http_get(host: str, port: int, path: str, timeout_s: float = 30.0) -> tuple[int, bytes]:
    """One blocking ``GET`` over a fresh connection: ``(status, body)``."""
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    return parse_response(b"".join(chunks))


def parse_response(raw: bytes) -> tuple[int, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        status = 0
    return status, body


class Daemon:
    """One ``repro serve`` child, from spawn to its ``drained`` line."""

    def __init__(self, root: Path, work: Path, spans_path: Optional[Path] = None):
        work.mkdir(parents=True, exist_ok=True)
        self.store = work / "serve.db"
        command = [
            "serve", *SERVE_FLAGS,
            "--store", str(self.store), "--wal-dir", str(work / "wal"),
            "--port", "0", "--http-port", "0",
        ]
        self._stderr_path = work / "serve.stderr"
        self._buffer = b""
        with open(self._stderr_path, "wb") as stderr:
            self.spawned = clock()
            self.process = subprocess.Popen(
                _argv(command, spans_path), stdout=subprocess.PIPE, stderr=stderr,
                env=_env(root, work / "tmp"), cwd=root,
            )
        try:
            listening = json.loads(self._line(120.0))["listening"]
        except BaseException:
            self.kill()
            raise
        self.listening = clock()
        self.host = listening["host"]
        self.port = listening["port"]
        self.http_port = listening["http_port"]

    @property
    def setup_s(self) -> float:
        return self.listening - self.spawned

    def _line(self, timeout_s: float) -> bytes:
        """The daemon's next stdout line (its JSON status lines)."""
        deadline = clock() + timeout_s
        fd = self.process.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - clock()
            if remaining <= 0:
                raise BenchError("daemon printed no status line in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise BenchError(f"daemon exited early: {self.stderr()[-2000:]}")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def get(self, path: str) -> tuple[int, bytes]:
        return http_get(self.host, self.http_port, path)

    def metrics(self) -> dict:
        status, body = self.get("/metrics.json")
        if status != 200:
            raise BenchError(f"/metrics.json answered {status}")
        return json.loads(body)

    def _proc(self, name: str) -> str:
        return Path(f"/proc/{self.process.pid}/{name}").read_text()

    def peak_rss_kb(self) -> int:
        """``VmHWM``: the daemon's resident-set high-water mark."""
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        raise BenchError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        """User + system CPU seconds the daemon has used so far."""
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> tuple[dict, float]:
        """SIGTERM, then ``(drained report, seconds to the drained line)``."""
        sent = clock()
        self.process.send_signal(signal.SIGTERM)
        try:
            while True:
                line = self._line(150.0)
                if line.startswith(b'{"drained"'):
                    drained_at = clock()
                    break
            self.process.wait(timeout=60)
        except BaseException:
            self.kill()
            raise
        if self.process.returncode != 0:
            raise BenchError(f"daemon exited {self.process.returncode}")
        return json.loads(line)["drained"], drained_at - sent

    def stderr(self) -> str:
        return self._stderr_path.read_text(errors="replace")

    def tracebacks(self) -> int:
        """Tracebacks the daemon printed (each an operation that errored)."""
        return self.stderr().count("Traceback (most recent call last)")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
