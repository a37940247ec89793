"""Command-line interface for the purpose-control toolkit.

Installed as the ``repro`` console script::

    repro validate  treatment.json
    repro lint      treatment.json trial.json --policy policy.txt \\
                    --role Cardiologist:Physician --format sarif --out lint.sarif
    repro encode    treatment.json --format dot > treatment.dot
    repro check     --process HT:treatment.json --trail day.xes --case HT-1
    repro audit     --process HT:treatment.json --process CT:trial.json \\
                    --trail day.xes --metrics metrics.json
    repro generate  --process HT:treatment.json --cases 50 --out day.xes
    repro stats     --process HT:treatment.json --trail day.xes
    repro serve     --process HT:treatment.json --port 7687 \\
                    --store audit.db
    repro demo

Process arguments use ``PREFIX:file.json``: the case prefix (the ``HT``
of ``HT-1``) paired with a process document produced by
:func:`repro.bpmn.serialize.dumps`.  Trails are XES files
(:mod:`repro.audit.xes`) or SQLite audit stores (``.db``/``.sqlite``,
:mod:`repro.audit.store`).

Telemetry (``docs/observability.md``): ``check``/``audit``/``generate``
and ``stats`` accept ``--metrics DEST`` (metrics snapshot; ``-`` =
stdout) with ``--metrics-format json|prometheus``, ``--events DEST``
(JSON-lines event log; ``-`` = stderr), and ``--trace DEST`` (span
trace; ``-`` = stderr) with ``--trace-format json|chrome``.  ``repro
stats`` runs a full audit and prints a human-readable telemetry summary
after the report.  ``--otlp DEST`` (also on ``serve``) exports spans
and metrics as OTLP/JSON — to a JSON-lines file or an ``http(s)://``
collector; ``repro trace CASE --from FILE`` renders a case's span tree
from such a file, and ``repro top URL`` live-samples a running
service's throughput, open cases, and ingest latency.

Resilience (``docs/robustness.md``): ``repro audit`` accepts
``--workers N`` (parallel, crash-isolated case auditing), ``--on-error
{fail,skip,quarantine}``, ``--case-timeout SECONDS`` and ``--retries N``.

Replay (``docs/compilation.md``): every audit and daemon replays through
purpose automata, dense tables that grow as cases replay.  ``repro
compile`` builds each purpose's table eagerly and persists it under
``--automaton-dir``; ``repro audit --automaton-dir DIR`` loads and
persists the warm artifacts so later runs — and parallel workers — skip
re-encoding and re-exploration entirely.

Streaming (``docs/serving.md``): ``repro serve`` runs the audit daemon —
a JSON-lines TCP endpoint replaying every entry on one online monitor,
persisting the stream to ``--store`` in batched transactions, with
``/healthz`` and ``/metrics`` on ``--http-port``.  SIGTERM (or SIGINT)
drains gracefully: intake stops, the store is flushed and
integrity-checked.

Static verification (``docs/analysis.md``): ``repro lint`` runs the
diagnostics engine (structural PC1xx, soundness PC2xx, policy PC3xx,
performance PC4xx) over one or more process documents, optionally
cross-checked against ``--policy FILE`` under ``--role`` hierarchy
specs, rendering ``--format text|json|sarif``; ``--strict`` makes
warnings fail the run.

Exit codes: 0 — success / compliant / lint clean; 1 — infringements or
lint errors found; 2 — bad input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.audit.model import AuditTrail
from repro.audit.store import AuditStore
from repro.audit.xes import export_xes, import_xes
from repro.bpmn.dot import process_to_dot
from repro.bpmn.encode import encode
from repro.bpmn.serialize import loads as load_process
from repro.bpmn.validate import non_well_founded_cycles, structural_problems
from repro.core.auditor import PurposeControlAuditor
from repro.core.compliance import ComplianceChecker
from repro.core.resilience import Quarantine, RetryPolicy
from repro.cows.pretty import pretty
from repro.errors import ReproError
from repro.obs import (
    NULL_EVENTS,
    NULL_TRACER,
    MetricsRegistry,
    Telemetry,
    Tracer,
    dumps_json,
    format_summary,
    json_lines_logger,
    to_prometheus,
)
from repro.policy.registry import ProcessRegistry

EXIT_OK = 0
EXIT_INFRINGEMENT = 1
EXIT_BAD_INPUT = 2


def _read_process(path_text: str):
    """Load a process document: .json (native) or .bpmn/.xml (BPMN 2.0).

    Validation is deferred to encoding time (``registry.encoded_for``),
    so one invalid process poisons only its own cases — the auditor
    contains the failure as UNDECIDABLE instead of refusing the whole
    run (``repro validate`` remains the eager checker).
    """
    path = Path(path_text)
    if not path.exists():
        raise ReproError(f"process file not found: {path}")
    if path.suffix in (".bpmn", ".xml"):
        from repro.bpmn.xml import process_from_bpmn_xml

        # Bytes: the document's XML declaration names its encoding.
        return process_from_bpmn_xml(path.read_bytes(), validated=False)
    return load_process(path.read_text(encoding="utf-8"), validated=False)


def _load_registry(specs: Sequence[str]) -> ProcessRegistry:
    registry = ProcessRegistry()
    for spec in specs:
        prefix, separator, path = spec.partition(":")
        if not separator or not prefix or not path:
            raise ReproError(
                f"--process expects PREFIX:file, got {spec!r}"
            )
        registry.register(_read_process(path), prefix)
    return registry


def _load_hierarchy(specs: Sequence[str] | None):
    from repro.policy.hierarchy import RoleHierarchy

    hierarchy = RoleHierarchy()
    for spec in specs or ():
        child, separator, parent = spec.partition(":")
        if not separator or not child or not parent:
            raise ReproError(f"--role expects CHILD:PARENT, got {spec!r}")
        hierarchy.add_role(child, parent)
    return hierarchy


def _load_trail(
    path_text: str, quarantine: Quarantine | None = None
) -> AuditTrail:
    """Load a trail; with a *quarantine*, per-record failures are
    diverted to it instead of aborting the load (``--on-error
    quarantine``)."""
    path = Path(path_text)
    if not path.exists():
        raise ReproError(f"trail file not found: {path}")
    if path.suffix in (".db", ".sqlite"):
        from repro.errors import IntegrityError

        with AuditStore(str(path)) as store:
            if quarantine is None:
                store.verify_integrity()
                return store.query()
            try:
                store.verify_integrity()
            except IntegrityError as error:
                broken_seq = getattr(error, "first_bad_seq", None)
                trail = store.query(quarantine=quarantine)
                # An undecodable row is dead-lettered by query() itself;
                # only a tampered-but-decodable row needs its own record.
                already = {
                    record.position
                    for record in quarantine.entries
                    if record.source == "store"
                }
                if broken_seq not in already:
                    quarantine.add(
                        source="store",
                        position=broken_seq,
                        reason=f"integrity check failed: {error}",
                    )
                return trail
            return store.query(quarantine=quarantine)
    with path.open("rb") as trail_file:
        return import_xes(trail_file, quarantine=quarantine)


# ---------------------------------------------------------------------------
# telemetry plumbing


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--metrics", metavar="DEST",
        help="write a metrics snapshot to DEST after the run ('-' = stdout)",
    )
    group.add_argument(
        "--metrics-format", choices=("json", "prometheus"), default="json",
    )
    group.add_argument(
        "--events", metavar="DEST",
        help="stream JSON-lines telemetry events to DEST ('-' = stderr)",
    )
    group.add_argument(
        "--trace", metavar="DEST",
        help="write a span trace to DEST after the run ('-' = stderr)",
    )
    group.add_argument(
        "--trace-format", choices=("json", "chrome"), default="json",
    )
    group.add_argument(
        "--otlp", metavar="DEST",
        help="export spans + metrics as OTLP/JSON to DEST — a JSON-lines "
        "file, or an http(s):// collector base URL (implies tracing)",
    )


def _telemetry_from_args(
    args: argparse.Namespace, force: bool = False
) -> Telemetry:
    """Build the Telemetry bundle the flags ask for (disabled when none)."""
    wants_otlp = bool(getattr(args, "otlp", None))
    wants_metrics = bool(getattr(args, "metrics", None)) or force or wants_otlp
    wants_events = bool(getattr(args, "events", None))
    wants_trace = bool(getattr(args, "trace", None)) or wants_otlp
    if not (wants_metrics or wants_events or wants_trace):
        return Telemetry.disabled()
    events = NULL_EVENTS
    if wants_events:
        destination = sys.stderr if args.events == "-" else args.events
        events = json_lines_logger(destination)
    return Telemetry.create(
        registry=MetricsRegistry(),
        events=events,
        tracer=Tracer() if wants_trace else NULL_TRACER,
    )


def _write_output(destination: str, text: str, default_stream) -> None:
    if destination == "-":
        default_stream.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(destination).write_text(
            text if text.endswith("\n") else text + "\n", encoding="utf-8"
        )


def _emit_telemetry(args: argparse.Namespace, telemetry: Telemetry) -> None:
    """Flush the requested snapshot/trace artifacts after a command."""
    if not telemetry.enabled:
        return
    if getattr(args, "metrics", None):
        if args.metrics_format == "prometheus":
            text = to_prometheus(telemetry.registry)
        else:
            text = dumps_json(telemetry.registry)
        _write_output(args.metrics, text, sys.stdout)
    if getattr(args, "trace", None):
        _write_output(
            args.trace, telemetry.tracer.dumps(args.trace_format), sys.stderr
        )
    if getattr(args, "otlp", None):
        from repro.obs import OtlpExporter

        OtlpExporter(args.otlp).export(
            tracer=telemetry.tracer, registry=telemetry.registry
        )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args: argparse.Namespace) -> int:
    process = _read_process(args.process_file)
    problems = structural_problems(process)
    for problem in problems:
        print(f"problem: {problem}")
    if problems:
        print(f"{process.process_id}: INVALID ({len(problems)} problem(s))")
        return EXIT_BAD_INPUT
    silent_cycles = non_well_founded_cycles(process)
    if silent_cycles:
        for cycle in silent_cycles:
            print("silent cycle: " + " -> ".join(cycle))
        print(
            f"{process.process_id}: NOT WELL-FOUNDED "
            f"({len(silent_cycles)} silent cycle(s); Algorithm 1 inapplicable)"
        )
        return EXIT_BAD_INPUT
    print(
        f"{process.process_id}: valid, well-founded "
        f"({len(process)} elements, {len(process.task_ids)} tasks, "
        f"pools: {', '.join(process.pools)})"
    )
    return EXIT_OK


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import LintOptions, lint_processes, render

    processes = [_read_process(path) for path in args.process_files]
    policy = None
    if args.policy:
        from repro.policy.parser import parse_policy

        policy_path = Path(args.policy)
        if not policy_path.exists():
            raise ReproError(f"policy file not found: {policy_path}")
        policy = parse_policy(policy_path.read_text(encoding="utf-8"))
    if args.budget < 1:
        raise ReproError("--budget must be a positive state count")
    telemetry = _telemetry_from_args(args)
    report = lint_processes(
        processes,
        policy=policy,
        hierarchy=_load_hierarchy(args.role),
        options=LintOptions(state_budget=args.budget),
        telemetry=telemetry,
    )
    _write_output(args.out, render(report, args.format), sys.stdout)
    if args.out != "-":
        print(report.summary())
    _emit_telemetry(args, telemetry)
    return report.exit_code(strict=args.strict)


def _cmd_encode(args: argparse.Namespace) -> int:
    process = _read_process(args.process_file)
    if args.format == "dot":
        print(process_to_dot(process))
        return EXIT_OK
    encoded = encode(process, validated=True)
    if args.format == "cows":
        print(pretty(encoded.term))
    else:  # summary
        print(f"process : {process.process_id}")
        print(f"purpose : {encoded.purpose}")
        print(f"roles   : {', '.join(sorted(encoded.roles))}")
        print(f"tasks   : {', '.join(sorted(encoded.tasks))}")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    registry = _load_registry(args.process)
    trail = _load_trail(args.trail)
    case_trail = trail.for_case(args.case)
    if len(case_trail) == 0:
        print(f"case {args.case}: no entries in trail")
        return EXIT_BAD_INPUT
    purpose = registry.purpose_of_case(args.case)
    telemetry = _telemetry_from_args(args)
    checker = ComplianceChecker(
        registry.encoded_for(purpose),
        hierarchy=_load_hierarchy(args.role),
        telemetry=telemetry,
    )
    result = checker.check(case_trail)
    if result.compliant:
        status = "compliant (open)" if result.may_continue else "compliant (complete)"
        print(f"case {args.case} [{purpose}]: {status}, "
              f"{result.trail_length} entries replayed")
        _emit_telemetry(args, telemetry)
        return EXIT_OK
    entry = result.failed_entry
    print(
        f"case {args.case} [{purpose}]: INFRINGEMENT at entry "
        f"{result.failed_index} ({entry.user} {entry.role} {entry.task})"
    )
    from repro.core.explain import explain

    explanation = explain(checker, case_trail.entries, result)
    if explanation is not None:
        print(f"diagnosis: {explanation}")
    if args.verbose:
        for step in result.steps:
            print(f"  {step}")
    _emit_telemetry(args, telemetry)
    return EXIT_INFRINGEMENT


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ReproError("--workers must be a positive process count")
    if args.retries < 0:
        raise ReproError("--retries must be zero or more")
    if args.case_timeout is not None and args.case_timeout <= 0:
        raise ReproError("--case-timeout must be a positive number of seconds")
    registry = _load_registry(args.process)
    telemetry = _telemetry_from_args(args)
    quarantine = (
        Quarantine(telemetry) if args.on_error == "quarantine" else None
    )
    trail = _load_trail(args.trail, quarantine=quarantine)
    auditor = PurposeControlAuditor(
        registry,
        hierarchy=_load_hierarchy(args.role),
        telemetry=telemetry,
        on_error=args.on_error,
        case_timeout_s=args.case_timeout,
        automaton_dir=args.automaton_dir,
        workers=args.workers,
        retry_policy=RetryPolicy(max_attempts=args.retries + 1),
    )
    report = auditor.audit(trail, quarantine=quarantine)
    print(report.summary())
    _emit_telemetry(args, telemetry)
    return EXIT_OK if report.compliant else EXIT_INFRINGEMENT


def _cmd_compile(args: argparse.Namespace) -> int:
    """Eagerly compile every registered purpose into a persisted automaton."""
    from repro.compile import AutomatonCache, precompile

    registry = _load_registry(args.process)
    telemetry = _telemetry_from_args(args)
    outcomes = precompile(
        registry,
        AutomatonCache(args.automaton_dir, telemetry=telemetry),
        hierarchy=_load_hierarchy(args.role),
        max_states=args.max_states,
        force=args.force,
        telemetry=telemetry,
    )
    failures = 0
    for purpose, outcome in outcomes.items():
        if isinstance(outcome, Exception):
            failures += 1
            print(f"{purpose}: FAILED ({outcome})", file=sys.stderr)
            continue
        automaton, saved = outcome
        status = "up to date" if saved is None else f"compiled -> {saved}"
        print(
            f"{purpose}: {status} ({automaton.n_states} state(s) x "
            f"{automaton.n_symbols} symbol(s), "
            f"{automaton.transition_count} transition(s), "
            f"pool {len(automaton.pool)}, "
            f"fingerprint {automaton.fingerprint[:12]})"
        )
    _emit_telemetry(args, telemetry)
    return EXIT_BAD_INPUT if failures else EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    """Audit the trail with telemetry forced on; print the human summary."""
    registry = _load_registry(args.process)
    trail = _load_trail(args.trail)
    telemetry = _telemetry_from_args(args, force=True)
    auditor = PurposeControlAuditor(
        registry, hierarchy=_load_hierarchy(args.role), telemetry=telemetry
    )
    report = auditor.audit(trail)
    print(report.summary())
    print()
    print(format_summary(telemetry.registry))
    _emit_telemetry(args, telemetry)
    return EXIT_OK if report.compliant else EXIT_INFRINGEMENT


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.audit.generator import TrailGenerator

    registry = _load_registry(args.process)
    telemetry = _telemetry_from_args(args)
    m_cases = telemetry.registry.counter(
        "cases_generated_total", "synthetic cases generated, by purpose"
    )
    m_entries = telemetry.registry.counter(
        "entries_generated_total", "synthetic log entries generated, by purpose"
    )
    purposes = sorted(registry.purposes())
    entries = []
    for purpose in purposes:
        encoded = registry.encoded_for(purpose)
        prefix = registry.case_prefix_of(purpose)
        users = {role: [(f"user-{role}", role)] for role in encoded.roles}
        generator = TrailGenerator(encoded, users_by_role=users, seed=args.seed)
        with telemetry.tracer.span("generate", purpose=purpose):
            for index in range(1, args.cases + 1):
                generated = generator.generate_case(
                    f"{prefix}-{index}", f"Subject{index}", min_steps=2
                )
                entries.extend(generated.trail)
                m_cases.inc(purpose=purpose)
                m_entries.inc(len(generated.trail), purpose=purpose)
    trail = AuditTrail(entries)
    document = export_xes(trail)
    if args.out == "-":
        print(document)
    else:
        Path(args.out).write_text(document, encoding="utf-8")
        print(f"wrote {len(trail)} entries ({args.cases} case(s) per purpose) "
              f"to {args.out}")
    _emit_telemetry(args, telemetry)
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the streaming audit daemon until SIGTERM/SIGINT, then drain."""
    import asyncio
    import json as _json
    import signal

    from repro.serve import AuditService, ServeConfig, ShardRouter

    audit_config = None
    if args.config:
        from repro.control import load_config
        from repro.obs.log import CONTROL_CONFIG_LOADED

        audit_config = load_config(args.config)
        registry = audit_config.registry()
        hierarchy = audit_config.hierarchy
    elif args.scenario:
        import repro.scenarios as scenarios

        if args.scenario == "paper":
            registry = scenarios.process_registry()
            hierarchy = scenarios.role_hierarchy()
        else:
            registry = scenarios.insurance_registry()
            hierarchy = scenarios.insurance_role_hierarchy()
    elif args.process:
        registry = _load_registry(args.process)
        hierarchy = _load_hierarchy(args.role)
    else:
        raise ReproError(
            "serve needs --config FILE, --process PREFIX:FILE or --scenario"
        )
    # A live /metrics endpoint needs a live registry, flags or not.
    telemetry = _telemetry_from_args(args, force=args.http_port >= 0)
    if audit_config is not None:
        if not args.no_preflight:
            report = audit_config.preflight(telemetry=telemetry)
            if not report.clean:
                lines = "; ".join(
                    f"{d.code} {d.process_id}: {d.message}"
                    for d in report.errors
                )
                raise ReproError(
                    f"config preflight failed ({len(report.errors)} lint "
                    f"error(s); --no-preflight overrides): {lines}"
                )
        telemetry.events.emit(
            CONTROL_CONFIG_LOADED,
            source=audit_config.source,
            version=audit_config.version,
            fingerprint=audit_config.fingerprint(),
            tenants=sorted(t.purpose for t in audit_config.tenants),
            preflight=not args.no_preflight,
        )
    flags = dict(
        store_path=args.store,
        flush_interval_s=args.flush_interval,
        flush_max_batch=args.flush_batch,
        case_timeout_s=args.case_timeout,
        automaton_dir=args.automaton_dir,
        wal_dir=args.wal_dir,
    )
    try:
        if audit_config is not None:
            # Config budgets win over flag defaults; explicit flags the
            # config does not set still apply.
            config = audit_config.serve_config(**flags)
        else:
            config = ServeConfig(**flags)
        router = ShardRouter(
            registry, hierarchy=hierarchy, config=config, telemetry=telemetry
        )
    except ValueError as error:
        raise ReproError(str(error)) from error
    control = None
    if args.http_port >= 0:
        from repro.control import ControlPlane

        control = ControlPlane(
            router=router, config=audit_config, telemetry=telemetry
        )
    service = AuditService(
        router,
        host=args.host,
        port=args.port,
        http_port=None if args.http_port < 0 else args.http_port,
        control=control,
    )

    async def _run():
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await service.start()
        if router.recovery_report is not None:
            # What the start resumed from the store (and WAL),
            # parseable, before "listening" — a wrapper that waits for
            # the port only proceeds once the rebuilt state is known
            # good.
            print(
                _json.dumps(
                    {"recovered": router.recovery_report.to_dict()}
                ),
                flush=True,
            )
        # One parseable line so wrappers (and the drain test) can find
        # the ephemeral ports.
        print(
            _json.dumps(
                {
                    "listening": {
                        "host": args.host,
                        "port": service.port,
                        "http_port": service.http_port,
                    }
                }
            ),
            flush=True,
        )
        await stop.wait()
        return await service.drain()

    report = asyncio.run(_run())
    print(
        _json.dumps(
            {
                "drained": {
                    "entries_received": report.entries_received,
                    "entries_written": report.entries_written,
                    "cases": report.cases,
                    "quarantined_cases": report.quarantined_cases,
                    "store_intact": report.store_intact,
                }
            }
        ),
        flush=True,
    )
    _emit_telemetry(args, telemetry)
    if report.store_intact is False:
        return EXIT_BAD_INPUT
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render a case's span tree from an OTLP/JSON export file."""
    from repro.obs.console import load_otlp_spans, render_case

    path = Path(args.otlp_file)
    if not path.exists():
        raise ReproError(f"OTLP export file not found: {path}")
    spans = load_otlp_spans(str(path))
    text = render_case(spans, args.case)
    print(text)
    return EXIT_OK if "no trace found" not in text else EXIT_INFRINGEMENT


def _cmd_top(args: argparse.Namespace) -> int:
    """Live view of a running service (Ctrl-C exits)."""
    import json as _json
    import time as _time
    import urllib.error
    import urllib.request

    from repro.obs.console import TopSampler

    base = args.url.rstrip("/")
    if not base.startswith(("http://", "https://")):
        base = "http://" + base

    def fetch(path: str) -> dict:
        try:
            response = urllib.request.urlopen(base + path, timeout=10)
        except urllib.error.HTTPError as error:
            # /healthz answers 503, with its full snapshot, while the
            # daemon refuses entries (a failed store).
            if error.code != 503:
                raise
            response = error
        with response:
            return _json.loads(response.read().decode("utf-8"))

    sampler = TopSampler(fetch)
    remaining = args.count
    try:
        while True:
            print(sampler.render(), flush=True)
            if remaining is not None:
                remaining -= 1
                if remaining <= 0:
                    break
            _time.sleep(args.interval)
            print()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return EXIT_OK


def _cmd_control(args: argparse.Namespace) -> int:
    """Operator console: query/triage a service or a store file.

    ``--url`` talks HTTP to a running daemon; ``--store`` (optionally
    with ``--config``) runs the same API in-process over a store file.
    Every action prints the JSON payload; API errors (status >= 400)
    exit 2, like any other bad input.
    """
    import json as _json

    from repro.control import (
        ControlPlane,
        HttpControlClient,
        LocalControlClient,
        load_config,
    )

    if args.url:
        base = args.url.rstrip("/")
        if not base.startswith(("http://", "https://")):
            base = "http://" + base
        client = HttpControlClient(base)
    elif args.store:
        config = load_config(args.config) if args.config else None
        plane = ControlPlane(store_path=args.store, config=config)
        client = LocalControlClient(plane)
    else:
        raise ReproError(
            "control needs --url (a running daemon) or --store (a file)"
        )

    action = args.action
    if action == "tenants":
        status, payload = client.tenants()
    elif action == "verdicts":
        status, payload = client.verdicts(
            purpose=args.purpose,
            outcome=args.outcome,
            since=args.since,
            until=args.until,
            after_case=args.after_case,
            limit=args.limit,
        )
    elif action == "case":
        status, payload = client.case(args.case)
    elif action == "trail":
        status, payload = client.trail(
            args.case, after_seq=args.after_seq, limit=args.limit
        )
    elif action == "quarantine":
        status, payload = client.quarantine()
    elif action == "requeue":
        status, payload = client.requeue(args.case)
    elif action == "dismiss":
        status, payload = client.dismiss(
            args.case, actor=args.actor, reason=args.reason
        )
    elif action == "reaudit":
        status, payload = client.reaudit(
            config=args.reaudit_config,
            ledger=args.ledger,
            ledger_out=args.ledger_out,
            fingerprint_log=args.fingerprint_log,
            full=True if args.full else None,
            include_records=True if args.include_records else None,
        )
    elif action == "config":
        status, payload = client.config_info()
    else:  # pragma: no cover - argparse restricts choices
        raise ReproError(f"unknown control action: {action}")

    print(_json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK if status < 400 else EXIT_BAD_INPUT


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        paper_audit_trail,
        process_registry,
        role_hierarchy,
    )

    auditor = PurposeControlAuditor(
        process_registry(), hierarchy=role_hierarchy()
    )
    report = auditor.audit(paper_audit_trail())
    print("Purpose control on the paper's running example (Figs 1-4):\n")
    print(report.summary())
    return EXIT_OK if report.compliant else EXIT_INFRINGEMENT


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Purpose control: verify that data were processed "
        "for the intended purpose (Petkovic, Prandi & Zannone, 2011).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser(
        "validate", help="validate a BPMN process document"
    )
    validate.add_argument("process_file")
    validate.set_defaults(handler=_cmd_validate)

    lint = commands.add_parser(
        "lint",
        help="statically verify process models: soundness, policy "
        "cross-checks, performance lint (docs/analysis.md)",
    )
    lint.add_argument("process_files", nargs="+", metavar="PROCESS_FILE")
    lint.add_argument(
        "--policy", metavar="FILE",
        help="data-protection policy document to cross-check (PC3xx)",
    )
    lint.add_argument(
        "--role", action="append", metavar="CHILD:PARENT",
        help="role specialization, e.g. Cardiologist:Physician (repeatable)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="treat warnings as failures (exit 1)",
    )
    lint.add_argument(
        "--budget", type=int, default=20_000, metavar="STATES",
        help="soundness state budget; past it the analysis degrades to "
        "an 'inconclusive' info diagnostic (default: 20000)",
    )
    lint.add_argument(
        "--out", default="-", metavar="DEST",
        help="write the report to DEST instead of stdout",
    )
    _add_telemetry_args(lint)
    lint.set_defaults(handler=_cmd_lint)

    encode_cmd = commands.add_parser(
        "encode", help="encode a process into COWS (or export DOT)"
    )
    encode_cmd.add_argument("process_file")
    encode_cmd.add_argument(
        "--format", choices=("summary", "cows", "dot"), default="summary"
    )
    encode_cmd.set_defaults(handler=_cmd_encode)

    check = commands.add_parser("check", help="replay one case (Algorithm 1)")
    check.add_argument(
        "--process", action="append", required=True, metavar="PREFIX:FILE"
    )
    check.add_argument("--trail", required=True, help="XES file or SQLite store")
    check.add_argument("--case", required=True)
    check.add_argument(
        "--role", action="append", metavar="CHILD:PARENT",
        help="role specialization, e.g. Cardiologist:Physician (repeatable)",
    )
    check.add_argument("--verbose", action="store_true")
    _add_telemetry_args(check)
    check.set_defaults(handler=_cmd_check)

    audit = commands.add_parser("audit", help="audit every case of a trail")
    audit.add_argument(
        "--process", action="append", required=True, metavar="PREFIX:FILE"
    )
    audit.add_argument("--trail", required=True)
    audit.add_argument(
        "--role", action="append", metavar="CHILD:PARENT",
        help="role specialization, e.g. Cardiologist:Physician (repeatable)",
    )
    resilience = audit.add_argument_group("resilience")
    resilience.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; >1 audits cases in parallel with "
        "crash isolation (default: 1, serial)",
    )
    resilience.add_argument(
        "--on-error", choices=("fail", "skip", "quarantine"), default="fail",
        help="unexpected per-case failures: abort the audit (fail, "
        "default), contain them as findings (skip), or also divert "
        "malformed input records to a dead-letter list (quarantine)",
    )
    resilience.add_argument(
        "--case-timeout", type=float, default=None, metavar="SECONDS",
        help="per-case wall-clock replay budget (contained as TIMEOUT)",
    )
    resilience.add_argument(
        "--retries", type=int, default=2,
        help="re-dispatches per case after worker loss (default: 2)",
    )
    audit.add_argument(
        "--automaton-dir", metavar="DIR", default=None,
        help="load and persist the purpose automata in DIR, so later "
        "runs start warm; invalid artifacts are recompiled transparently "
        "(docs/compilation.md)",
    )
    _add_telemetry_args(audit)
    audit.set_defaults(handler=_cmd_audit)

    compile_cmd = commands.add_parser(
        "compile",
        help="compile purpose automata and persist them as artifacts",
    )
    compile_cmd.add_argument(
        "--process", action="append", required=True, metavar="PREFIX:FILE"
    )
    compile_cmd.add_argument(
        "--automaton-dir", required=True, metavar="DIR",
        help="directory receiving the .table.bin artifacts",
    )
    compile_cmd.add_argument(
        "--role", action="append", metavar="CHILD:PARENT",
        help="role specialization, e.g. Cardiologist:Physician (repeatable)",
    )
    compile_cmd.add_argument(
        "--max-states", type=int, default=50_000,
        help="automaton state bound (mirrors the frontier guard; "
        "default: 50000)",
    )
    compile_cmd.add_argument(
        "--force", action="store_true",
        help="recompile even when a valid artifact exists",
    )
    # Accepted and ignored (every artifact is a dense table); scripts
    # such as perfbench/workloads.py still pass it.
    compile_cmd.add_argument(
        "--table", action="store_true", help=argparse.SUPPRESS
    )
    _add_telemetry_args(compile_cmd)
    compile_cmd.set_defaults(handler=_cmd_compile)

    stats = commands.add_parser(
        "stats",
        help="audit a trail and print a human-readable telemetry summary",
    )
    stats.add_argument(
        "--process", action="append", required=True, metavar="PREFIX:FILE"
    )
    stats.add_argument("--trail", required=True)
    stats.add_argument(
        "--role", action="append", metavar="CHILD:PARENT",
        help="role specialization, e.g. Cardiologist:Physician (repeatable)",
    )
    _add_telemetry_args(stats)
    stats.set_defaults(handler=_cmd_stats)

    generate = commands.add_parser(
        "generate", help="generate a synthetic compliant trail (XES)"
    )
    generate.add_argument(
        "--process", action="append", required=True, metavar="PREFIX:FILE"
    )
    generate.add_argument("--cases", type=int, default=10)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", default="-")
    _add_telemetry_args(generate)
    generate.set_defaults(handler=_cmd_generate)

    serve = commands.add_parser(
        "serve",
        help="run the streaming audit daemon (docs/serving.md)",
    )
    serve.add_argument(
        "--config", metavar="FILE", default=None,
        help="declarative audit config (JSON/TOML): tenants, hierarchy "
        "and budgets in one versioned document (docs/control-plane.md); "
        "replaces --process/--scenario/--role",
    )
    serve.add_argument(
        "--no-preflight", action="store_true",
        help="skip the repro-lint preflight over --config tenants "
        "(lint errors normally refuse startup)",
    )
    serve.add_argument(
        "--process", action="append", metavar="PREFIX:FILE",
        help="case-prefix:process-document pair (repeatable)",
    )
    serve.add_argument(
        "--scenario", choices=("paper", "insurance"), default=None,
        help="serve a built-in scenario's registry instead of --process",
    )
    serve.add_argument(
        "--role", action="append", metavar="CHILD:PARENT",
        help="role specialization, e.g. Cardiologist:Physician (repeatable)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port for the JSON-lines stream (0 = ephemeral)",
    )
    serve.add_argument(
        "--http-port", type=int, default=0,
        help="port for /healthz and /metrics (0 = ephemeral; "
        "-1 disables HTTP)",
    )
    # Accepted and ignored (every case is replayed on one engine);
    # scripts such as perfbench/daemonctl.py still pass it.
    serve.add_argument("--shards", type=int, help=argparse.SUPPRESS)
    serve.add_argument(
        "--store", metavar="PATH", default=None,
        help="persist the stream to this SQLite audit store; a start "
        "on a store file resumes it before listening",
    )
    serve.add_argument(
        "--flush-interval", type=float, default=0.5, metavar="SECONDS",
        help="store flush cadence (default: 0.5)",
    )
    serve.add_argument(
        "--flush-batch", type=int, default=256, metavar="N",
        help="flush early once N entries are buffered (default: 256)",
    )
    serve.add_argument(
        "--case-timeout", type=float, default=None, metavar="SECONDS",
        help="cumulative per-case processing budget; cases over it are "
        "quarantined (TIMEOUT) without stalling the stream",
    )
    serve_robustness = serve.add_argument_group(
        "crash safety (docs/robustness.md)"
    )
    serve_robustness.add_argument(
        "--wal-dir", metavar="DIR", default=None,
        help="write-ahead ingest log in front of a --store file: every "
        "accepted entry is CRC-framed here before it is acknowledged, "
        "and a start commits what the store lacks before listening",
    )
    serve.add_argument(
        "--automaton-dir", metavar="DIR", default=None,
        help="compile every purpose into DIR at boot, so the first "
        "entry is answered from a complete table; without it the "
        "tables grow from the stream (docs/compilation.md)",
    )
    # Accepted and ignored (every case replays through its purpose
    # automaton); perfbench/daemonctl.py still passes it.
    serve.add_argument("--compiled", action="store_true", help=argparse.SUPPRESS)
    _add_telemetry_args(serve)
    serve.set_defaults(handler=_cmd_serve)

    trace_cmd = commands.add_parser(
        "trace",
        help="render a case's span tree from an OTLP/JSON export",
    )
    trace_cmd.add_argument("case", help="case id, e.g. HT-1")
    trace_cmd.add_argument(
        "--from", dest="otlp_file", required=True, metavar="FILE",
        help="the JSON-lines file a --otlp run wrote",
    )
    trace_cmd.set_defaults(handler=_cmd_trace)

    top = commands.add_parser(
        "top",
        help="live throughput/latency view of a running service",
    )
    top.add_argument(
        "url", help="the service's HTTP endpoint, e.g. 127.0.0.1:8080"
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh cadence (default: 2.0)",
    )
    top.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="exit after N samples (default: run until Ctrl-C)",
    )
    top.set_defaults(handler=_cmd_top)

    control = commands.add_parser(
        "control",
        help="operator console: query verdicts, triage quarantine, "
        "re-audit (docs/control-plane.md)",
    )
    control.add_argument(
        "--url", default=None, metavar="URL",
        help="HTTP endpoint of a running daemon, e.g. 127.0.0.1:8080",
    )
    control.add_argument(
        "--store", default=None, metavar="PATH",
        help="run the API in-process over this audit store (no daemon)",
    )
    control.add_argument(
        "--config", default=None, metavar="FILE",
        help="audit config to mount alongside --store (enables verdict "
        "queries and re-audit over the store)",
    )
    control_actions = control.add_subparsers(
        dest="action", required=True, metavar="ACTION"
    )
    control_actions.add_parser(
        "tenants", help="list tenants (purpose, prefix, fingerprint)"
    )
    verdicts = control_actions.add_parser(
        "verdicts", help="query per-case verdicts with filters"
    )
    verdicts.add_argument("--purpose", default=None)
    verdicts.add_argument(
        "--outcome", default=None,
        help="completed | infringing | open | quarantined",
    )
    verdicts.add_argument(
        "--since", default=None, metavar="ISO-8601",
        help="only cases with trail activity at/after this instant",
    )
    verdicts.add_argument(
        "--until", default=None, metavar="ISO-8601",
        help="only cases with trail activity at/before this instant",
    )
    verdicts.add_argument(
        "--after-case", default=None, metavar="CASE",
        help="keyset cursor: resume after this case id",
    )
    verdicts.add_argument("--limit", type=int, default=None, metavar="N")
    case_cmd = control_actions.add_parser(
        "case", help="one case's verdict, findings, trace and trail refs"
    )
    case_cmd.add_argument("case")
    trail_cmd = control_actions.add_parser(
        "trail", help="a case's audit-trail entries (paginated)"
    )
    trail_cmd.add_argument("case")
    trail_cmd.add_argument(
        "--after-seq", type=int, default=0, metavar="SEQ",
        help="keyset cursor: entries with store seq > SEQ",
    )
    trail_cmd.add_argument("--limit", type=int, default=None, metavar="N")
    control_actions.add_parser(
        "quarantine", help="list quarantined cases and their failure kinds"
    )
    requeue = control_actions.add_parser(
        "requeue", help="replay a quarantined case from its first entry"
    )
    requeue.add_argument("case")
    dismiss = control_actions.add_parser(
        "dismiss",
        help="drop a case from quarantine, recording who and why",
    )
    dismiss.add_argument("case")
    dismiss.add_argument("--actor", default="operator")
    dismiss.add_argument("--reason", default="")
    reaudit = control_actions.add_parser(
        "reaudit",
        help="re-audit the store against a (new) config; incremental "
        "when a baseline ledger exists",
    )
    reaudit.add_argument(
        "--config", dest="reaudit_config", default=None, metavar="FILE",
        help="the (possibly edited) config to audit under "
        "(default: the mounted one)",
    )
    reaudit.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="baseline ledger from a previous run (enables incremental)",
    )
    reaudit.add_argument(
        "--ledger-out", default=None, metavar="FILE",
        help="write the resulting ledger here (the next run's baseline)",
    )
    reaudit.add_argument(
        "--fingerprint-log", default=None, metavar="FILE",
        help="append one forensics JSON line per run (CI artifact)",
    )
    reaudit.add_argument(
        "--full", action="store_true",
        help="force a cold full re-audit (ignore any baseline)",
    )
    reaudit.add_argument(
        "--include-records", action="store_true",
        help="include per-case records in the printed payload",
    )
    control_actions.add_parser(
        "config", help="the mounted config's version and fingerprints"
    )
    control.set_defaults(handler=_cmd_control)

    demo = commands.add_parser("demo", help="run the paper's scenario")
    demo.set_defaults(handler=_cmd_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.handler(args))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
