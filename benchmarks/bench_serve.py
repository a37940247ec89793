"""Serve-throughput observatory: the numbers behind ``BENCH_serve.json``.

Drives the :class:`~repro.serve.core.ShardRouter` directly (no sockets —
this measures the audit engine, not loopback TCP) with a synthetic
hospital day, at 1/2/4 shards, and writes ``BENCH_serve.json`` at the
repo root: entries/s, p99 ingest latency, and the per-shard scaling
curve.  CI runs this on every push and the blocking perf gate
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

SHARD_COUNTS = (1, 2, 4)
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


def _measure_round(entries, shards: int, wal_dir: str | None = None) -> dict:
    """One timed pass: submit every entry, wait for quiescence."""
    telemetry = Telemetry.create()
    router = ShardRouter(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(shards=shards, compiled=True, wal_dir=wal_dir),
        telemetry=telemetry,
    )
    router.start()  # warm-up (encode + compile) is not measured
    started = time.perf_counter()
    for entry in entries:
        router.submit(entry)
    assert router.wait_idle(timeout=120)
    elapsed = time.perf_counter() - started
    router.drain()
    ingest = telemetry.registry.histogram("serve_ingest_seconds")
    return {
        "entries_per_s": len(entries) / elapsed,
        "p99_latency_s": ingest.quantile(0.99),
        "p50_latency_s": ingest.quantile(0.5),
    }


def measure(entries) -> dict:
    """Best-of-``ROUNDS`` serve throughput at every shard count."""
    per_shards: dict[str, dict] = {}
    for shards in SHARD_COUNTS:
        best: dict | None = None
        for _ in range(ROUNDS):
            sample = _measure_round(entries, shards)
            if best is None or sample["entries_per_s"] > best["entries_per_s"]:
                best = sample
        per_shards[str(shards)] = {
            key: round(value, 9) for key, value in best.items()
        }
    top = per_shards[str(SHARD_COUNTS[-1])]
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
        with tempfile.TemporaryDirectory(prefix="bench-serve-wal-") as wal_dir:
            sample = _measure_round(entries, SHARD_COUNTS[-1], wal_dir=wal_dir)
        if wal_round is None or sample["entries_per_s"] > wal_round["entries_per_s"]:
            wal_round = sample
    return {
        "benchmark": "serve_throughput",
        "workload": {"cases": N_CASES, "entries": len(entries)},
        "calibration_ops_per_s": round(calibration_ops_per_s(), 3),
        "entries_per_s": top["entries_per_s"],
        "p99_latency_s": top["p99_latency_s"],
        "shards": per_shards,
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
    """
    from repro.serve.wal import WalWriter

    best = float("inf")
    with tempfile.TemporaryDirectory(prefix="bench-serve-walus-") as wal_dir:
        for round_index in range(rounds):
            writer = WalWriter(Path(wal_dir), f"bench-{round_index}")
            counts: dict[str, int] = {}
            started = time.perf_counter()
            for i in range(per_round):
                entry = entries[i % len(entries)]
                counts[entry.case] = counts.get(entry.case, 0) + 1
                writer.append(entry, counts[entry.case])
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
    # More shards must not collapse throughput: the scaling curve is
    # the whole point of publishing per-shard numbers.
    assert set(result["shards"]) == {str(n) for n in SHARD_COUNTS}
    assert result["wal"]["entries_per_s"] > 0
    write_report(result)


if __name__ == "__main__":
    day = _workload()
    report = measure(list(day.trail))
    destination = write_report(report)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {destination}")
