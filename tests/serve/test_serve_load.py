"""The serve-smoke load driver (run in CI's ``serve-smoke`` job).

Boots the daemon with a store and pushes a generated hospital workload
through one TCP connection as fast as the socket allows, then asserts
the service-level objectives the CI job enforces:

* **throughput** — the stream sustains at least 1 000 entries/s end to
  end (send → replayed), measured over the whole workload;
* **latency** — p95 per-entry replay time stays in
  single-digit milliseconds (from the ``serve_ingest_seconds``
  histogram);
* **zero dropped entries** — every entry sent is accounted for: router
  received == client sent == store rows, with the hash chain intact.
"""

import time

import pytest

from repro.audit.store import AuditStore
from repro.obs import MetricsRegistry, Telemetry
from repro.scenarios import hospital_day, process_registry, role_hierarchy
from repro.serve import AuditStreamClient, ServeConfig


@pytest.fixture(scope="module")
def workload():
    return hospital_day(n_cases=60, violation_rate=0.2, seed=99)


class TestServeSmoke:
    def test_hospital_workload_slo(self, serve_factory, workload, tmp_path):
        telemetry = Telemetry.create(registry=MetricsRegistry())
        store_path = str(tmp_path / "load.db")
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(
                store_path=store_path,
                flush_max_batch=128,
                # The SLO is a compiled-path promise: the daemon
                # pre-compiles every purpose automaton at startup and
                # the engine replays by transition-table lookup.
                compiled=True,
            ),
            telemetry=telemetry,
        )

        entries = list(workload.trail)
        assert len(entries) >= 400, "workload too small to measure"

        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            # Warm the engine out-of-band so the measurement reflects
            # steady state, like a daemon that has been up for a while.
            client.send_trail(entries[:20])
            client.sync()

            started = time.perf_counter()
            client.send_trail(entries[20:])
            client.sync()
            elapsed = time.perf_counter() - started

            measured = len(entries) - 20
            rate = measured / elapsed
            assert rate >= 1000, (
                f"sustained only {rate:.0f} entries/s over {measured} "
                f"entries (need >= 1000)"
            )

            served = client.results()
            infringing = {
                case
                for case, info in served.items()
                if info["state"] == "infringing"
            }
            expected = {
                case for case, ok in workload.ground_truth.items() if not ok
            }
            assert infringing == expected

        # p95 ingest latency from the engine's histogram.
        ingest = telemetry.registry.get("serve_ingest_seconds")
        p95 = ingest.quantile(0.95)
        assert p95 < 0.05, f"p95 ingest latency {p95 * 1000:.1f} ms"

        report = handle.drain()
        # Zero dropped entries, end to end.
        assert report.entries_received == len(entries)
        assert report.entries_written == len(entries)
        assert report.quarantined_cases == 0
        assert report.store_intact is True
        with AuditStore(store_path) as store:
            assert len(store) == len(entries)
            store.verify_integrity()

    def test_flush_batching_actually_batches(
        self, serve_factory, workload, tmp_path
    ):
        """The store writer commits in append_many transactions, not one
        transaction per entry."""
        telemetry = Telemetry.create(registry=MetricsRegistry())
        handle = serve_factory(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(
                store_path=str(tmp_path / "batched.db"),
                flush_max_batch=64,
            ),
            telemetry=telemetry,
        )
        entries = list(workload.trail)
        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            client.send_trail(entries)
            client.sync()
        handle.drain()
        flushes = telemetry.registry.counter("serve_flushes_total").total
        assert 0 < flushes <= len(entries) / 32, (
            f"{flushes} flushes for {len(entries)} entries — batching "
            "is not happening"
        )
