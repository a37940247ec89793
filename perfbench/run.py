"""The repository's benchmark: the audit pipeline as users drive it.

Run from the checkout root::

    python3 perfbench/run.py                        # all three workloads
    python3 perfbench/run.py --workload stream_day --seed 3 --seconds 30 --trace 0

``--trace 0`` measures the untraced program and reports every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` adds a traced run
and reports every per-layer metric instead.  Human-readable lines come
first; the last stdout line is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``).  Any verdict, digest,
store-integrity, serving-tier or generator-validity problem makes the
run incorrect and the exit code 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", default="all",
        choices=("all", "audit_day", "stream_day", "stream_watched"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, for the benchmark's own tests (numbers meaningless)",
    )
    parser.add_argument(
        "--flip-truth", action="store_true",
        help="corrupt one case's ground truth: the run must then fail its check",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = (
        list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    )
    work = ROOT / ".perfbench_work" / str(os.getpid())
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ctx = workloads.Context(
                root=ROOT, work=work / name, seed=args.seed, seconds=args.seconds,
                trace=bool(args.trace),
                sizes=workloads.SMOKE if args.smoke else workloads.FULL,
                flip_truth=args.flip_truth,
            )
            ctx.work.mkdir(parents=True)
            try:
                result = workloads.WORKLOADS[name](ctx)
            except workloads.BenchError as error:
                print(f"{name}: FAILED: {error}", file=sys.stderr)
                return 1
            values = result.layers if args.trace else result.end_to_end
            for metric in wanted:
                value = float(values.get(metric["name"], 0.0))
                key = metric["name"] if len(names) == 1 else f"{name}.{metric['name']}"
                metrics[key] = {"value": value, "unit": metric["unit"]}
                print(f"{name:15} {metric['name']:36} {value:14.6f} {metric['unit']}")
            for label, value, unit in result.report:
                print(f"{name:15} {label:36} {value:14.6f} {unit}")
            for problem in result.problems:
                print(f"{name}: PROBLEM: {problem}")
            if result.problems:
                correct = False
                result.failed = result.attempted
            attempted += result.attempted
            failed += result.failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
