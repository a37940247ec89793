"""Serve-throughput observatory: the numbers behind ``BENCH_serve.json``.

Drives the :class:`~repro.serve.core.ShardRouter` directly (no sockets —
this measures the audit engine, not loopback TCP) with a synthetic
hospital day, and writes ``BENCH_serve.json`` at the repo root:
entries/s and p50/p99 ingest latency, plain and with the write-ahead
log.  CI runs this on every push and the blocking perf gate
(``benchmarks/perf_gate.py``) compares the result against the committed
baseline in ``benchmarks/baselines/``.

Machine variance is normalized away with a **calibration loop**: a
deterministic pure-Python workload whose ops/s stands in for the host's
single-thread speed.  The gate compares calibration-*relative* numbers,
so a baseline recorded on one machine remains meaningful on another.

Runs as plain pytest (no pytest-benchmark required) and as a script::

    PYTHONPATH=src python benchmarks/bench_serve.py
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro.obs import Telemetry
from repro.scenarios import hospital_day, process_registry, role_hierarchy
from repro.serve import ServeConfig, ShardRouter

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT = REPO_ROOT / "BENCH_serve.json"

N_CASES = 80
ROUNDS = 5  # best-of, to shed scheduler noise


def calibration_ops_per_s(ops: int = 300_000) -> float:
    """Ops/s of a fixed pure-Python loop — the host-speed yardstick."""
    accumulator = 0
    started = time.perf_counter()
    for i in range(ops):
        accumulator = (accumulator * 31 + i) % 1_000_003
    elapsed = time.perf_counter() - started
    assert accumulator >= 0  # keep the loop un-eliminable
    return ops / elapsed


def _workload():
    return hospital_day(n_cases=N_CASES, violation_rate=0.1, seed=42)


def _measure_round(entries, durable_dir: str | None = None) -> dict:
    """One timed pass: submit every entry (each is replayed before
    ``submit`` returns, so the loop's end is quiescence).

    With *durable_dir* the router writes a store file and a WAL there,
    as a crash-safe daemon does (a WAL needs a durable store)."""
    telemetry = Telemetry.create()
    durable = {}
    if durable_dir is not None:
        durable = dict(
            store_path=str(Path(durable_dir) / "audit.db"),
            wal_dir=str(Path(durable_dir) / "wal"),
        )
    router = ShardRouter(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(compiled=True, **durable),
        telemetry=telemetry,
    )
    router.start()  # warm-up (encode + compile) is not measured
    started = time.perf_counter()
    for entry in entries:
        admission = router.submit(entry)
        assert admission.accepted, admission.reason
    elapsed = time.perf_counter() - started
    router.drain()
    ingest = telemetry.registry.histogram("serve_ingest_seconds")
    return {
        "entries_per_s": len(entries) / elapsed,
        "p99_latency_s": ingest.quantile(0.99),
        "p50_latency_s": ingest.quantile(0.5),
    }


def measure(entries) -> dict:
    """Best-of-``ROUNDS`` serve throughput, plain and with the WAL."""
    best: dict | None = None
    for _ in range(ROUNDS):
        sample = _measure_round(entries)
        if best is None or sample["entries_per_s"] > best["entries_per_s"]:
            best = sample
    top = {key: round(value, 9) for key, value in best.items()}
    # The crash-safety tax.  A direct wall-clock A/B (plain round vs
    # WAL round) cannot resolve a ~10% effect here: measured round-to-
    # round noise on a shared box is ±30%, so any ratio of two noisy
    # end-to-end times flaps.  Instead the tax is measured where it
    # actually lives — the amortized per-entry cost of
    # ``WalWriter.append`` in a single-threaded microbench (stable to a
    # few percent) — and held against the plain path's per-entry budget
    # from this same report.  ``relative_to_plain`` is the throughput
    # ratio that tax implies if every appended microsecond lands on the
    # critical path (the worst case: append runs under the ingest
    # lock), so the gate errs toward catching regressions.
    append_us = _wal_append_us(entries)
    plain_us = 1e6 / top["entries_per_s"]
    wal_round: dict | None = None
    for _ in range(ROUNDS):
        with tempfile.TemporaryDirectory(prefix="bench-serve-wal-") as durable_dir:
            sample = _measure_round(entries, durable_dir=durable_dir)
        if wal_round is None or sample["entries_per_s"] > wal_round["entries_per_s"]:
            wal_round = sample
    return {
        "benchmark": "serve_throughput",
        "workload": {"cases": N_CASES, "entries": len(entries)},
        "calibration_ops_per_s": round(calibration_ops_per_s(), 3),
        "entries_per_s": top["entries_per_s"],
        "p50_latency_s": top["p50_latency_s"],
        "p99_latency_s": top["p99_latency_s"],
        "wal": {
            "entries_per_s": round(wal_round["entries_per_s"], 9),
            "p99_latency_s": round(wal_round["p99_latency_s"], 9),
            "append_us": round(append_us, 4),
            "plain_us_per_entry": round(plain_us, 4),
            "relative_to_plain": round(plain_us / (plain_us + append_us), 6),
        },
    }


def _wal_append_us(entries, rounds: int = 3, per_round: int = 4000) -> float:
    """Amortized microseconds per ``WalWriter.append`` (best of rounds).

    Cycles the workload through a lone writer — framing, CRC, buffering,
    batch drains to the OS, and one closing fsync all land in the timed
    region, exactly the work one accepted entry adds to the ingest path.
    Each entry is handed its ``entry`` line, as the daemon hands the
    line it read from the socket; encoding the lines is not timed.
    """
    from repro.serve.protocol import encode_message, entry_to_message
    from repro.serve.wal import WalWriter

    lines = [encode_message(entry_to_message(entry)).strip() for entry in entries]
    best = float("inf")
    with tempfile.TemporaryDirectory(prefix="bench-serve-walus-") as wal_dir:
        for round_index in range(rounds):
            # A log starts in a directory that holds no segment.
            writer = WalWriter(Path(wal_dir) / str(round_index))
            counts: dict[str, int] = {}
            started = time.perf_counter()
            for i in range(per_round):
                entry = entries[i % len(entries)]
                counts[entry.case] = counts.get(entry.case, 0) + 1
                writer.append(entry, counts[entry.case], lines[i % len(entries)])
            writer.commit()
            elapsed = time.perf_counter() - started
            writer.close()
            best = min(best, elapsed * 1e6 / per_round)
    return best


def write_report(result: dict, path: Path = OUTPUT) -> Path:
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def test_serve_throughput_report():
    """The observatory entry point CI runs (also a correctness check)."""
    day = _workload()
    result = measure(list(day.trail))
    assert result["entries_per_s"] > 0
    assert result["p99_latency_s"] >= 0
    assert result["wal"]["entries_per_s"] > 0
    write_report(result)


if __name__ == "__main__":
    day = _workload()
    report = measure(list(day.trail))
    destination = write_report(report)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {destination}")
