"""Shared harness for the streaming-audit-service suites.

``serve_factory`` boots a real :class:`~repro.serve.AuditService` — TCP
socket, HTTP endpoint and all — on an asyncio loop running in a
background thread, and tears everything down (drain included) when the
test finishes.  Tests talk to it with the shipped
:class:`~repro.serve.AuditStreamClient`, exactly like an external log
shipper would.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.serve import AuditService, ServeConfig, ShardRouter
from repro.serve.core import DrainReport


class RunningService:
    """One live service on a background event loop (test handle)."""

    def __init__(self, service: AuditService, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.service = service
        self.router = service.router
        self._loop = loop
        self._thread = thread
        self._report: "DrainReport | None" = None

    @property
    def host(self) -> str:
        return "127.0.0.1"

    @property
    def port(self) -> int:
        assert self.service.port is not None
        return self.service.port

    @property
    def http_port(self) -> int:
        assert self.service.http_port is not None
        return self.service.http_port

    def drain(self) -> DrainReport:
        if self._report is None:
            future = asyncio.run_coroutine_threadsafe(
                self.service.drain(), self._loop
            )
            self._report = future.result(timeout=30)
        return self._report

    def stop(self) -> None:
        self.drain()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        if not self._loop.is_running():
            self._loop.close()


@pytest.fixture
def serve_factory():
    """``start(registry, ...) -> RunningService``; auto-stopped."""
    running: list[RunningService] = []

    def start(
        registry,
        hierarchy=None,
        config: "ServeConfig | None" = None,
        telemetry=None,
        checker_wrapper=None,
        http: bool = False,
        control=None,
    ) -> RunningService:
        router = ShardRouter(
            registry,
            hierarchy=hierarchy,
            config=config or ServeConfig(),
            telemetry=telemetry,
            checker_wrapper=checker_wrapper,
        )
        if control == "mount":
            # Convenience: build a ControlPlane over the router itself.
            from repro.control import ControlPlane

            control = ControlPlane(router=router, telemetry=telemetry)
        service = AuditService(
            router, http_port=0 if http else None, control=control
        )
        loop = asyncio.new_event_loop()
        thread = threading.Thread(
            target=loop.run_forever, name="serve-test-loop", daemon=True
        )
        thread.start()
        asyncio.run_coroutine_threadsafe(service.start(), loop).result(
            timeout=30
        )
        handle = RunningService(service, loop, thread)
        running.append(handle)
        return handle

    yield start
    for handle in running:
        handle.stop()
