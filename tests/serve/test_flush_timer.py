"""The flush timer outlives a failed tick.

Every ``flush_interval_s`` the service hands the buffered entries to the
store writer and fsyncs the write-ahead log.  A tick whose fsync fails
(a disk that fills up, then frees space) is logged as
``serve.tick_failed`` with the error, and the timer keeps ticking: the
next tick retries, so entries accepted after the failure still reach
the store.
"""

import errno
import time

from repro.obs import SERVE_TICK_FAILED, MemoryEventLog, Telemetry
from repro.scenarios import hospital_day, process_registry, role_hierarchy
from repro.serve import ServeConfig


def test_a_failed_wal_commit_does_not_stop_the_flush_timer(
    serve_factory, tmp_path
):
    log = MemoryEventLog()
    handle = serve_factory(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(
            store_path=str(tmp_path / "audit.db"),
            wal_dir=str(tmp_path / "wal"),
            flush_interval_s=0.05,
            flush_max_batch=10_000,  # only the timer flushes
        ),
        telemetry=Telemetry.create(events=log.events),
    )
    router = handle.router
    commit = router.wal_commit
    failed = []

    def wal_commit_failing_once():
        if not failed:
            failed.append(True)
            raise OSError(errno.ENOSPC, "No space left on device")
        return commit()

    router.wal_commit = wal_commit_failing_once
    deadline = time.monotonic() + 5
    while not failed:
        assert time.monotonic() < deadline, "the timer never ticked"
        time.sleep(0.01)

    entries = list(hospital_day(n_cases=6, seed=3).trail)[:52]
    for entry in entries:
        assert router.submit(entry).accepted
    # A few ticks later every entry is in the store (the deadline is
    # forty ticks, for a loaded host).
    deadline = time.monotonic() + 2.0
    while router.entries_written < len(entries):
        assert time.monotonic() < deadline, (
            f"{router.entries_written} of {len(entries)} entries submitted "
            f"after the failed tick reached the store"
        )
        time.sleep(0.01)

    failures = log.named(SERVE_TICK_FAILED)
    assert len(failures) == 1
    assert "No space left on device" in failures[0]["error"]
    assert handle.drain().store_intact is True
