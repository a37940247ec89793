"""A store writer that dies is visible, and the daemon stops accepting.

The store writer is the one thread that commits accepted entries to
the audit store.  An error it cannot contain (a full disk, a locked
file) ends it, and from then on nothing the daemon acknowledges could
be made durable.  So the router refuses every new entry ``busy`` with a
reason naming the store, ``statistics()`` and ``/healthz`` name the
error (``/healthz`` answers 503), and the drain reports the store not
intact.  With a write-ahead log the refused stream loses nothing: what
was accepted before the failure is in the log, and the next start
resumes it.  A writer that a drain stopped is not a failure: a ``sync``
that races the drain succeeds.
"""

import json
import sqlite3
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.audit.store import AuditStore
from repro.audit.xes import export_xes
from repro.cli import main
from repro.errors import ReproError
from repro.obs import MetricsRegistry, Telemetry
from repro.scenarios import paper_audit_trail, process_registry, role_hierarchy
from repro.serve import AuditStreamClient, ServeConfig, ShardRouter
from repro.serve.protocol import EV_BUSY, EV_ERROR

# The writer thread dies of the injected error, as on a full disk.
pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)


def disk_full(self, entries):
    raise sqlite3.OperationalError("database or disk is full")


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


def _wait_for_store_error(router: ShardRouter) -> str:
    deadline = time.monotonic() + 10
    while router.store_error is None:
        assert time.monotonic() < deadline, "the store writer never died"
        time.sleep(0.01)
    return router.store_error


@pytest.mark.parametrize("wal", [False, True], ids=["store", "store+wal"])
def test_a_dead_store_writer_refuses_entries_and_reports_itself(
    tmp_path, monkeypatch, wal
):
    trail = list(paper_audit_trail())
    half = len(trail) // 2
    router = _router(tmp_path, wal)
    assert router.statistics()["store"] == {"enabled": True, "error": None}
    monkeypatch.setattr(AuditStore, "append_many", disk_full)
    for entry in trail[:half]:
        assert router.submit(entry).accepted
    router.flush()
    error = _wait_for_store_error(router)
    assert "OperationalError" in error and "disk is full" in error

    refused = router.submit(trail[half])
    assert not refused.accepted and refused.busy
    assert refused.retry_after_s > 0
    assert "audit store" in refused.reason and "disk is full" in refused.reason
    assert router.entries_received == half
    assert router.statistics()["store"] == {"enabled": True, "error": error}
    report = router.drain()
    assert report.store_intact is False
    assert report.entries_written == 0

    if wal:
        # The log kept everything accepted before the failure: a start
        # with a working store resumes it and commits it.
        monkeypatch.undo()
        again = _router(tmp_path, wal)
        assert again.recovery_report.replayed == half
        assert again.drain().store_intact is True
        with AuditStore(str(tmp_path / "audit.db")) as store:
            assert len(list(store.iter_entries())) == half


def test_healthz_answers_503_and_the_stream_gets_busy(
    serve_factory, tmp_path, monkeypatch, capsys
):
    handle = serve_factory(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(store_path=str(tmp_path / "audit.db")),
        telemetry=Telemetry.create(registry=MetricsRegistry()),
        http=True,
    )
    url = f"http://{handle.host}:{handle.http_port}/healthz"
    with urllib.request.urlopen(url, timeout=10) as response:
        assert json.loads(response.read())["status"] == "ok"
    trail = list(paper_audit_trail())
    monkeypatch.setattr(AuditStore, "append_many", disk_full)
    with AuditStreamClient(handle.host, handle.port) as client:
        client.send_entry(trail[0])
        # The sync flushes the entry, and the writer dies committing it:
        # the entry is not known to be durable, so no `synced`.
        client.send({"op": "sync", "id": 1})
        failed = client.recv_until(EV_ERROR)["detail"]
        error = _wait_for_store_error(handle.router)
        assert failed == f"sync failed: audit store unavailable: {error}"

        with pytest.raises(urllib.error.HTTPError) as refused:
            urllib.request.urlopen(url, timeout=10)
        assert refused.value.code == 503
        payload = json.loads(refused.value.read())
        assert payload["status"] == "store-failed"
        assert payload["store"]["error"] == error

        client.send_entry(trail[1])
        busy = client.recv_until(EV_BUSY)
        assert busy["case"] == trail[1].case
        assert "audit store" in busy["reason"]

        # An xes document is refused too, not retried for ever.
        client.send_xes(export_xes(paper_audit_trail()))
        assert "audit store" in client.recv_until(EV_ERROR)["detail"]

    # The console still reads the 503 snapshot, and says why.
    address = f"{handle.host}:{handle.http_port}"
    assert main(["top", address, "--count", "1", "--interval", "0"]) == 0
    assert "repro top — store-failed" in capsys.readouterr().out
    assert handle.drain().store_intact is False


def test_a_sync_that_races_a_drain_is_not_a_failure(tmp_path, monkeypatch):
    """A store-only ``sync`` whose barrier reaches the writer after the
    drain's stop finds the writer gone, but the writer committed every
    entry queued before its stop: the sync succeeds."""
    trail = list(paper_audit_trail())
    router = _router(tmp_path, wal=False)
    for entry in trail:
        assert router.submit(entry).accepted
    scanning, release = threading.Event(), threading.Event()
    scan = AuditStore.is_intact

    def held_scan(store):
        # The writer's last act before it exits: hold it there.
        scanning.set()
        release.wait(10)
        return scan(store)

    monkeypatch.setattr(AuditStore, "is_intact", held_scan)
    drainer = threading.Thread(target=router.drain)
    drainer.start()
    assert scanning.wait(10), "the writer never took the drain's stop"
    failures = []

    def sync():
        try:
            router.sync()
        except ReproError as error:
            failures.append(error)

    syncer = threading.Thread(target=sync)
    syncer.start()
    deadline = time.monotonic() + 10
    while router._writer.queue.empty():  # the barrier, behind the stop
        assert time.monotonic() < deadline, "the sync never queued its barrier"
        time.sleep(0.01)
    release.set()
    syncer.join(10)
    drainer.join(10)
    assert failures == []
    assert router.drain().store_intact is True
    with AuditStore(str(tmp_path / "audit.db")) as store:
        assert len(store) == len(trail)
