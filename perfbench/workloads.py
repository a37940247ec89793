"""The three workloads, their end-to-end metrics and their checks.

Every workload emits the same end-to-end metric names (regressions are
judged per name across runs); what each name measures on each workload
is listed in ``perfbench/README.md``.  Work is gated as CPU seconds
(``cpu_s``), not wall time: on a shared host the middle half of ten
runs of the same code spread a sixth to a third of the median on the
wall time of a whole audit or a console read, while a process is not
charged CPU time for the time it waits for a core.  Wall times are
printed beside them.
"""

from __future__ import annotations

import array
import json
import math
import sqlite3
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import inputs
from daemonctl import BenchError, Daemon, run_command
from loadgen import StreamClient, cpu_s, send_open_loop, send_saturated
from spans import clock


@dataclass(frozen=True)
class Sizes:
    audit_cases: int  # audit_day: cases in the XES day (~12 entries each)
    min_cycles: int  # audit_day: compile + warm + cold cycles per run
    stream_cases: int  # stream_day: cases streamed
    stream_min_entries: int
    watched_rate: float  # stream_watched: offered entries/s
    watched_seconds: Optional[float]  # None: the run's --seconds
    setups: int  # daemon start-ups per untraced stream run


FULL = Sizes(2000, 3, 8600, 100_000, 3000.0, None, 3)
SMOKE = Sizes(40, 1, 120, 1000, 400.0, 2.0, 1)

PROBE_EVERY_S = 0.1  # stream_watched: a sync probe per 0.1 s of entries
CONSOLE_INTERVAL_S = 2.0  # repro top's default refresh cadence
MIN_TABLE_HIT_RATIO = 0.8  # below it the program fell off the table tier
GEN_LATE_LIMIT_S = 0.025  # sender's own lateness p90 above this voids a run
GEN_CPU_LIMIT = 0.9  # client CPU share above this voids a run
FINAL_SYNC = 0


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    flip_truth: bool = False


@dataclass
class Result:
    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    report: list[tuple[str, float, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    console_failed: int = 0
    problems: list[str] = field(default_factory=list)

    def note(self, name: str, value: float, unit: str) -> None:
        self.report.append((name, value, unit))

    def timing(self, name: str, values_s: list[float]) -> None:
        """Report a latency as median, p90 and its best-supported tail."""
        values = [v * 1000.0 for v in values_s]
        self.note(f"{name}_p50_ms", percentile(values, 50), "ms")
        self.note(f"{name}_p90_ms", percentile(values, 90), "ms")
        q = tail_percentile(len(values))
        if q is not None and q > 90:
            self.note(f"{name}_p{q:g}_ms", percentile(values, q), "ms")
        self.note(f"{name}_samples", len(values), "count")


# ---------------------------------------------------------------------------
# arithmetic


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (0 for no samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples: int) -> Optional[float]:
    """The highest percentile with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0, 50.0):
        if samples * (1 - q / 100.0) >= 10:
            return q
    return None


def covered_s(roots: array.array, low: float, high: float) -> float:
    """Length of the union of root-span intervals, clipped to [low, high]."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(zip(roots[0::2], roots[1::2])):
        start, end = max(start, low), min(end, high)
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def load_spans(path: Path) -> tuple[dict, array.array]:
    roots = array.array("d")
    roots.frombytes(Path(f"{path}.roots").read_bytes())
    return json.loads(path.read_text()), roots


def counter_total(metrics: dict, name: str) -> float:
    """Sum of a counter's series in a ``to_json`` metrics snapshot."""
    return sum(v["value"] for v in metrics.get(name, {}).get("values", []))


#: Span totals reported as they are (seconds, summed over the run).
SPAN_TOTALS = (
    "audit.model.project_s", "audit.xes.import_s", "cli.report_s", "core.audit_s",
    "bpmn.encode_s", "compile.automaton_build_s", "compile.table_build_s",
    "compile.fingerprint_s", "compile.artifact_load_s", "compile.artifact_save_s",
    "core.replay_s", "core.monitor.observe_s", "serve.protocol.decode_s",
    "serve.core.submit_s", "serve.wal.append_s", "serve.wal.commit_s",
    "audit.store.append_many_s", "audit.store.verify_s",
    "control.api.handle_s.tenants", "control.api.handle_s.metrics_json",
    "serve.core.results_s",
)


def span_layers(docs: list[dict]) -> dict[str, float]:
    def spans(name: str, key: str = "total_s") -> float:
        return sum(doc["spans"].get(name, {}).get(key, 0.0) for doc in docs)

    def counter(name: str) -> float:
        return sum(doc["counters"].get(name, 0.0) for doc in docs)

    def samples(name: str) -> list[float]:
        return [v for doc in docs for v in doc["samples"].get(name, [])]

    layers = {name: spans(name) for name in SPAN_TOTALS}
    layers["audit.model.project_calls"] = spans("audit.model.project_s", "calls")
    layers["core.audit_case_self_s"] = spans("core.audit_case_s", "self_s")
    for name in ("compile.states", "core.replay_entries", "serve.wal.commits",
                 "audit.store.batches"):
        layers[name] = counter(name)
    batches = layers["audit.store.batches"]
    layers["audit.store.rows_per_batch"] = (
        counter("audit.store.rows") / batches if batches else 0.0
    )
    waits = samples("serve.core.queue_wait_s")
    layers["serve.core.queue_wait_p50_s"] = percentile(waits, 50)
    layers["serve.core.queue_wait_p90_s"] = percentile(waits, 90)
    layers["serve.core.barrier_p50_s"] = percentile(samples("serve.core.barrier_s"), 50)
    return layers


# ---------------------------------------------------------------------------
# audit_day: trail file -> repro audit report, warm and cold


def audit_day(ctx: Context) -> Result:
    result = Result()
    day = inputs.hospital(ctx.sizes.audit_cases, ctx.seed, flip_truth=ctx.flip_truth)
    xes = ctx.work / "day.xes"
    inputs.write_xes(day, xes)
    flags = inputs.process_flags(ctx.work)
    cases = len(day.by_case())

    def audit(name: str, directory: Path, spans_path, extra=()):
        run = run_command(
            ctx.root, ctx.work,
            ["audit", *flags, "--trail", str(xes), "--automaton-dir", str(directory),
             *extra],
            spans_path,
        )
        audited, flagged = inputs.flagged_in_report(run.stdout)
        result.attempted += cases
        wrong = len(flagged ^ day.infringing) + abs(cases - audited)
        if wrong or run.code != (1 if flagged else 0):
            result.failed += wrong or cases
            result.problems.append(
                f"{name} audit: {wrong} case verdict(s) differ from the ground "
                f"truth (exit {run.code})"
            )
        return run

    def cycle(index: int, traced: bool):
        def spans_path(name):
            return ctx.work / f"{name}-{index}.spans.json" if traced else None

        automata = ctx.work / f"automata-{index}"
        empty = ctx.work / f"empty-{index}"
        empty.mkdir()
        compiled = run_command(
            ctx.root, ctx.work,
            ["compile", *flags, "--automaton-dir", str(automata), "--table"],
            spans_path("compile"),
        )
        result.attempted += 1
        if compiled.code != 0:
            result.failed += 1
            result.problems.append(f"repro compile exited {compiled.code}")
        metrics = ["--metrics", str(ctx.work / f"warm-{index}.metrics.json")]
        warm = audit("warm", automata, spans_path("warm"), metrics if traced else ())
        cold = audit("cold", empty, spans_path("cold"))
        return compiled, warm, cold

    cycles = []
    started = clock()
    while len(cycles) < ctx.sizes.min_cycles or (
        not ctx.trace and clock() - started < ctx.seconds
    ):
        cycles.append(cycle(len(cycles), traced=False))
        if ctx.trace:
            break
    compiles, warms, colds = zip(*cycles)

    def median(runs, attribute: str) -> float:
        return statistics.median(getattr(run, attribute) for run in runs)

    result.end_to_end = {
        "setup_s": median(compiles, "wall_s"),
        "cpu_s": statistics.median(w.cpu_s + c.cpu_s for w, c in zip(warms, colds)),
        "rss_mb": median(warms, "peak_rss_kb") / 1024.0,
    }
    warm_s = median(warms, "wall_s")
    result.note("audit_cold_s", median(colds, "wall_s"), "s")
    result.note("audit_warm_s", warm_s, "s")
    result.note("audit_cold_cpu_s", median(colds, "cpu_s"), "s")
    result.note("audit_warm_cpu_s", median(warms, "cpu_s"), "s")
    result.note("audit_warm_eps", len(day.entries) / warm_s, "1/s")
    result.note("entries", len(day.entries), "count")
    result.note("cases", cases, "count")
    result.note("cycles", len(cycles), "count")
    if ctx.trace:
        traced = cycle(len(cycles), traced=True)
        result.layers = _audit_layers(ctx, day, traced, cycles[0], len(cycles))
        warm, _ = load_spans(ctx.work / f"warm-{len(cycles)}.spans.json")
        spans = warm["spans"]
        result.note(
            "warm_project_share_of_audit",
            spans["audit.model.project_s"]["total_s"] / spans["core.audit_s"]["total_s"],
            "ratio",
        )
    return result


def _audit_layers(ctx: Context, day, traced, untraced, index: int) -> dict[str, float]:
    docs, startup, other = [], [], 0.0
    for name, run in zip(("compile", "warm", "cold"), traced):
        doc, roots = load_spans(ctx.work / f"{name}-{index}.spans.json")
        docs.append(doc)
        started = doc["imported"] - run.spawned
        startup.append(started)
        ended = run.spawned + run.wall_s
        other += (run.wall_s - started - doc["install_s"]
                  - covered_s(roots, doc["main_entry"], ended))
    layers = span_layers(docs)
    layers["process.startup_s"] = statistics.mean(startup)
    layers["other_s"] = other
    layers["trace.overhead_s"] = (
        sum(run.wall_s for run in traced) - sum(run.wall_s for run in untraced)
    )
    metrics = json.loads((ctx.work / f"warm-{index}.metrics.json").read_text())
    ratio = counter_total(metrics, "automaton_table_hits_total") / len(day.entries)
    layers["compile.table_hit_ratio"] = ratio
    return layers


# ---------------------------------------------------------------------------
# the stream workloads: repro serve over TCP


@dataclass
class Pass:
    """One daemon's life, from spawn to drained."""

    spawned: float
    setup_s: float
    result_s: float
    first_send: float
    synced: float
    verdict_s: list[float]
    ack_s: list[float]
    console: list[tuple[str, float, int]]
    accepted: int
    rss_kb: int
    daemon_cpu_s: float
    client_cpu_share: float
    drain_s: float
    refused_by_daemon: float
    table_hit_ratio: float
    sent: object


def _stream_pass(ctx: Context, work: Path, day, lines, cases, reference,
                 send: Callable, console: Optional[tuple[float, int]],
                 spans_path: Optional[Path], result: Result) -> Pass:
    daemon = Daemon(ctx.root, work, spans_path)
    client = None
    try:
        client = StreamClient(daemon.host, daemon.port, daemon.http_port, console)
        client.start()
        daemon_cpu, client_cpu = daemon.cpu_s(), cpu_s()
        sent = send(client)
        synced = client.sync(FINAL_SYNC)
        # Up to the console's last read, so every run counts the same reads.
        client.finish_console()
        daemon_cpu = daemon.cpu_s() - daemon_cpu
        client_cpu = cpu_s() - client_cpu
        window = clock() - sent.first_send
        results = client.results()
        metrics = daemon.metrics()
        rss_kb = daemon.peak_rss_kb()
        client.bye()
    except BaseException:
        if client is not None:
            client.close()
        daemon.kill()
        raise
    drained, drain_s = daemon.stop()

    seen = client.seen
    accepted = len(lines) - seen.refused
    verdicts = [seen.first_verdict[c] - t for c, t in sent.case_first.items()
                if c in seen.first_verdict]
    acks = [seen.synced[token] - due for token, due in sent.probes.items()
            if token in seen.synced]
    reads = client.console.reads if client.console is not None else []
    failed_reads = sum(1 for _, _, status in reads if status != 200)
    result.attempted += len(lines) + len(sent.probes) + 1 + len(reads)
    result.failed += (
        seen.refused + seen.errors + failed_reads
        + (len(sent.case_first) - len(verdicts)) + (len(sent.probes) - len(acks))
    )
    # A console read that crashed its handler leaves a traceback on the
    # daemon's stderr; it is a failed operation, counted above.  Any
    # other traceback voids the run.
    if daemon.tracebacks() > failed_reads:
        result.problems.append(
            f"daemon printed {daemon.tracebacks()} traceback(s): "
            f"{daemon.stderr()[-1500:]}"
        )
    result.console_failed += failed_reads
    hits = counter_total(metrics, "automaton_table_hits_total")
    ratio = hits / accepted if accepted else 0.0
    _check_stream(day, reference, results, drained, daemon.store, accepted, ratio,
                  result)
    return Pass(
        spawned=daemon.spawned, setup_s=daemon.setup_s,
        result_s=synced - sent.first_send, first_send=sent.first_send,
        synced=synced, verdict_s=verdicts, ack_s=acks, console=reads,
        accepted=accepted, rss_kb=rss_kb, daemon_cpu_s=daemon_cpu,
        client_cpu_share=client_cpu / window, drain_s=drain_s,
        refused_by_daemon=counter_total(metrics, "serve_busy_total")
        + counter_total(metrics, "serve_shed_total"),
        table_hit_ratio=ratio, sent=sent,
    )


def _check_stream(day, reference, results, drained, store: Path, accepted: int,
                  ratio: float, result: Result) -> None:
    flagged = {
        case for case, record in results.items()
        if record["state"] not in ("open", "completed")
    }
    if flagged != day.infringing:
        result.problems.append(
            f"{len(flagged ^ day.infringing)} streamed verdict(s) differ from "
            "the ground truth"
        )
    digests = sum(
        1 for case, digest in reference.items()
        if results.get(case, {}).get("digest") != digest
    ) + len(set(results) - set(reference))
    if digests:
        result.problems.append(
            f"{digests} streamed digest(s) differ from the batch replay"
        )
    with sqlite3.connect(store) as connection:
        rows = connection.execute("SELECT COUNT(*) FROM audit_log").fetchone()[0]
    if not drained["entries_written"] == rows == accepted:
        result.problems.append(
            f"store holds {rows} row(s), drain wrote {drained['entries_written']}, "
            f"{accepted} entries were accepted"
        )
    if drained["store_intact"] is not True:
        result.problems.append("drained store is not intact")
    if ratio < MIN_TABLE_HIT_RATIO:
        result.problems.append(
            f"daemon served {ratio:.2f} of entries from the table tier "
            f"(< {MIN_TABLE_HIT_RATIO})"
        )


def _stream(ctx: Context, day, send: Callable,
            console: Optional[tuple[float, int]]) -> Result:
    result = Result()
    lines = inputs.wire_lines(day)
    cases = [entry.case for entry in day.entries]
    reference = inputs.reference_digests(day)

    def run_pass(name: str, spans_path: Optional[Path] = None) -> Pass:
        return _stream_pass(
            ctx, ctx.work / name, day, lines, cases, reference,
            lambda client: send(client, lines, cases), console,
            spans_path, result,
        )

    setups = []
    if not ctx.trace:
        for index in range(ctx.sizes.setups - 1):
            daemon = Daemon(ctx.root, ctx.work / f"setup-{index}")
            setups.append(daemon.setup_s)
            daemon.stop()
    plain = run_pass("plain")
    setups.append(plain.setup_s)
    result.end_to_end = {
        "setup_s": statistics.median(setups),
        "cpu_s": plain.daemon_cpu_s,
        "rss_mb": plain.rss_kb / 1024.0,
    }
    result.note("stream_s", plain.result_s, "s")
    result.note("ingest_eps", plain.accepted / plain.result_s, "1/s")
    result.note("drain_s", plain.drain_s, "s")
    result.timing("verdict", plain.verdict_s)
    if plain.ack_s:
        result.timing("ack", plain.ack_s)
    if plain.console:
        result.timing("console", [seconds for _, seconds, _ in plain.console])
        result.note("console_failed", result.console_failed, "count")
    result.note("entries", len(lines), "count")
    result.note("cases", len(reference), "count")
    result.note("failed_ratio", result.failed / max(result.attempted, 1), "ratio")
    _generator_validity(plain, result)
    if ctx.trace:
        spans_path = ctx.work / "serve.spans.json"
        traced = run_pass("traced", spans_path)
        result.layers = _stream_layers(spans_path, plain, traced, len(reference))
    return result


def _generator_validity(plain: Pass, result: Result) -> None:
    sent = plain.sent
    if sent.late:
        result.note("gen_late_p90_ms", percentile(sent.late, 90) * 1000.0, "ms")
        result.note("gen_late_max_ms", max(sent.late) * 1000.0, "ms")
    result.note("gen_cpu_share", plain.client_cpu_share, "ratio")
    own = percentile(sent.own_late, 90)
    if own > GEN_LATE_LIMIT_S or plain.client_cpu_share > GEN_CPU_LIMIT:
        result.problems.append(
            f"invalid run: the load generator itself was late (own lateness "
            f"p90 {own * 1000:.1f} ms, client CPU share "
            f"{plain.client_cpu_share:.2f})"
        )


def _stream_layers(spans_path: Path, plain: Pass, traced: Pass,
                   cases: int) -> dict[str, float]:
    doc, roots = load_spans(spans_path)
    layers = span_layers([doc])
    layers["process.startup_s"] = doc["imported"] - traced.spawned
    layers["other_s"] = traced.result_s - covered_s(
        roots, traced.first_send, traced.synced
    )
    layers["trace.overhead_s"] = traced.result_s - plain.result_s
    layers["serve.cpu_us_per_entry"] = plain.daemon_cpu_s / plain.accepted * 1e6
    layers["serve.rss_kb_per_case"] = plain.rss_kb / cases
    layers["serve.refused"] = plain.refused_by_daemon
    layers["compile.table_hit_ratio"] = plain.table_hit_ratio
    sent = plain.sent
    layers["gen.send_s"] = sent.send_s
    layers["gen.late_p90_ms"] = percentile(sent.late, 90) * 1000.0
    layers["gen.late_max_ms"] = max(sent.late, default=0.0) * 1000.0
    layers["gen.cpu_share"] = plain.client_cpu_share
    return layers


def stream_day(ctx: Context) -> Result:
    day = inputs.hospital(ctx.sizes.stream_cases, ctx.seed, flip_truth=ctx.flip_truth)
    if len(day.entries) < ctx.sizes.stream_min_entries:
        raise BenchError(f"stream_day generated only {len(day.entries)} entries")
    return _stream(ctx, day, send_saturated, None)


def stream_watched(ctx: Context) -> Result:
    rate = ctx.sizes.watched_rate
    seconds = ctx.sizes.watched_seconds or ctx.seconds
    wanted = int(rate * seconds)
    # ~12 entries per case: a tenth of the entry count in cases is ample.
    day = inputs.hospital(max(wanted // 10, 10), ctx.seed, limit=wanted,
                          flip_truth=ctx.flip_truth)
    probe_every = max(1, int(rate * PROBE_EVERY_S))

    def send(client, lines, cases):
        return send_open_loop(client, lines, cases, rate, probe_every)

    refreshes = math.ceil(seconds / CONSOLE_INTERVAL_S)
    return _stream(ctx, day, send, (CONSOLE_INTERVAL_S, refreshes))


WORKLOADS = {
    "audit_day": audit_day,
    "stream_day": stream_day,
    "stream_watched": stream_watched,
}
