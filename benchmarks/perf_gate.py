"""The blocking CI perf gate over ``BENCH_serve.json``.

Compares a freshly measured serve benchmark against the committed
baseline (``benchmarks/baselines/BENCH_serve.json``) and exits non-zero
on a regression beyond the threshold (default 15%, per ROADMAP item 2).

Raw entries/s are machine-dependent, so both sides are normalized by
their own ``calibration_ops_per_s`` (see ``bench_serve.py``): the gate
compares *entries per calibration op* — how much audit work the engine
does per unit of host speed — which survives moving the baseline
between machines.  Latency is normalized the same way (p99 × cal ops/s
= p99 in calibration-op units).

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py
    python benchmarks/perf_gate.py \\
        --current BENCH_serve.json \\
        --baseline benchmarks/baselines/BENCH_serve.json \\
        --threshold 0.15

A missing baseline passes with a warning (first run of a new
benchmark); a malformed one fails — a gate that cannot read its
baseline must not silently wave regressions through.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def normalized(report: dict) -> dict:
    """Calibration-relative throughput and latency for one report."""
    calibration = float(report["calibration_ops_per_s"])
    if calibration <= 0:
        raise ValueError("calibration_ops_per_s must be positive")
    return {
        "throughput": float(report["entries_per_s"]) / calibration,
        "p99": float(report["p99_latency_s"]) * calibration,
    }


def evaluate(
    current: dict, baseline: dict, threshold: float = 0.15
) -> tuple[bool, list[str]]:
    """``(ok, messages)`` — ok is False on any >threshold regression."""
    now = normalized(current)
    then = normalized(baseline)
    messages: list[str] = []
    ok = True

    floor = then["throughput"] * (1.0 - threshold)
    verdict = "ok" if now["throughput"] >= floor else "REGRESSION"
    if now["throughput"] < floor:
        ok = False
    messages.append(
        f"throughput: {now['throughput']:.6f} vs baseline "
        f"{then['throughput']:.6f} entries/cal-op "
        f"(floor {floor:.6f}) — {verdict}"
    )

    if then["p99"] > 0:
        ceiling = then["p99"] * (1.0 + threshold)
        verdict = "ok" if now["p99"] <= ceiling else "REGRESSION"
        if now["p99"] > ceiling:
            ok = False
        messages.append(
            f"p99 latency: {now['p99']:.6f} vs baseline {then['p99']:.6f} "
            f"cal-ops (ceiling {ceiling:.6f}) — {verdict}"
        )

    # The crash-safety tax is measured self-relative (in the same run on
    # the same host, needing no calibration — see ``bench_serve.measure``
    # for why this is a microbench-derived ratio rather than a wall-clock
    # A/B), but gated against the *baseline's* tax: the plain path's per-entry budget
    # shrinks every time replay gets faster, which mechanically inflates
    # a fixed per-entry append cost as a fraction — that is engine
    # progress, not a WAL regression.  What the gate must catch is the
    # append itself getting pricier relative to where it stood.
    wal = current.get("wal")
    if wal is not None:
        relative = float(wal["relative_to_plain"])
        baseline_wal = baseline.get("wal")
        anchor = (
            float(baseline_wal["relative_to_plain"])
            if baseline_wal is not None
            else 1.0
        )
        floor = anchor * (1.0 - threshold)
        verdict = "ok" if relative >= floor else "REGRESSION"
        if relative < floor:
            ok = False
        detail = ""
        if "append_us" in wal:
            detail = (
                f" (append {float(wal['append_us']):.2f}us on a "
                f"{float(wal['plain_us_per_entry']):.2f}us/entry budget)"
            )
        messages.append(
            f"wal throughput: {relative:.4f}x of plain "
            f"(floor {floor:.4f}x){detail} — {verdict}"
        )
    return ok, messages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", required=True, metavar="FILE")
    parser.add_argument("--baseline", required=True, metavar="FILE")
    parser.add_argument("--threshold", type=float, default=0.15)
    args = parser.parse_args(argv)

    current_path = Path(args.current)
    baseline_path = Path(args.baseline)
    if not current_path.exists():
        print(f"perf-gate: current report {current_path} not found")
        return 1
    if not baseline_path.exists():
        print(
            f"perf-gate: no baseline at {baseline_path} — passing "
            "(commit one to arm the gate)"
        )
        return 0
    current = json.loads(current_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    ok, messages = evaluate(current, baseline, threshold=args.threshold)
    for message in messages:
        print(f"perf-gate: {message}")
    print(f"perf-gate: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
