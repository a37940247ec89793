"""The HTTP/JSON control API (mounted under ``/api/`` by the service).

Transport-free by design: :meth:`ControlPlane.handle` takes ``(method,
path, query, body)`` and returns ``(status, payload, headers)``, so the
same object serves the asyncio front end
(:class:`~repro.serve.service.AuditService`), the in-process client
behind ``repro control --store`` (no daemon at all), and the tests.

Two mounting modes:

* **live** — constructed with a running
  :class:`~repro.serve.core.ShardRouter`: verdicts come from the
  shards' monitors (concurrent with ingest), quarantine triage goes
  through the router (requeue replays on the owning shard thread), and
  the audit store supplies trails and durable operator records;
* **standalone** — constructed over a store file and an
  :class:`~repro.control.config.AuditConfig`: verdicts come from a
  cached replay of the store, and triage is limited to inspection and
  durable dismissal (there is no live shard to requeue into).

Endpoints (all JSON; see ``docs/control-plane.md``)::

    GET  /api/v1/tenants
    GET  /api/v1/verdicts?purpose=&outcome=&since=&until=&after_case=&limit=
    GET  /api/v1/cases/{case}
    GET  /api/v1/cases/{case}/trail?after_seq=&limit=
    GET  /api/v1/quarantine
    GET  /api/v1/quarantine/{case}
    POST /api/v1/quarantine/{case}/requeue
    POST /api/v1/quarantine/{case}/dismiss   {"actor": ..., "reason": ...}
    POST /api/v1/reaudit                     {"config": path, ...}
    GET  /api/v1/config
"""

from __future__ import annotations

from datetime import datetime
from typing import Optional

from repro.audit.store import AuditStore
from repro.control.config import AuditConfig
from repro.control.reaudit import (
    ReauditLedger,
    full_reaudit,
    incremental_reaudit,
)
from repro.errors import ConfigError, ReproError, UnknownPurposeError
from repro.obs import (
    CONTROL_DISMISS,
    CONTROL_REAUDIT,
    CONTROL_REQUEUE,
    NULL_TELEMETRY,
)

API_VERSION = "v1"

#: Default/maximum page size for the verdict listing.
DEFAULT_PAGE = 100
MAX_PAGE = 1000


class ControlPlane:
    """The operator API over a live router and/or an audit store."""

    def __init__(
        self,
        router=None,
        config: Optional[AuditConfig] = None,
        store_path: Optional[str] = None,
        telemetry=None,
    ):
        if router is None and store_path is None:
            raise ReproError(
                "a control plane needs a live router or a store file"
            )
        self.router = router
        self.config = config
        if store_path is None and router is not None:
            store_path = router._durable_store_path()
        self._store_path = store_path
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = tel
        self._m_requests = tel.registry.counter(
            "control_requests_total", "control-API requests, by endpoint"
        )
        self._m_reaudit_cases = tel.registry.counter(
            "reaudit_cases_total", "cases touched by re-audit runs, by mode"
        )
        # Standalone verdicts replay the store once and cache by store
        # length — a grown store invalidates the cache.
        self._offline_cache: Optional[tuple[int, dict[str, dict]]] = None

    # -- dispatch --------------------------------------------------------
    def handle(
        self, method: str, path: str, query: dict, body: Optional[dict]
    ) -> tuple[int, dict, dict]:
        """Serve one request; ``(status, JSON payload, extra headers)``."""
        try:
            return self._route(method, path, query, body or {})
        except _ApiError as error:
            return error.status, {"error": str(error)}, error.headers
        except (ReproError, ValueError) as error:
            return 400, {"error": str(error)}, {}

    def _route(
        self, method: str, path: str, query: dict, body: dict
    ) -> tuple[int, dict, dict]:
        parts = [part for part in path.split("/") if part]
        # parts[0] == "api" (the service routes /api/* here), then the
        # version, then the resource.
        if len(parts) < 2 or parts[0] != "api":
            raise _ApiError(404, f"no such endpoint: {path}")
        if parts[1] != API_VERSION:
            raise _ApiError(
                404,
                f"unsupported API version {parts[1]!r} (this daemon "
                f"speaks {API_VERSION})",
            )
        resource = parts[2] if len(parts) > 2 else ""
        rest = parts[3:]
        reader = method in ("GET", "HEAD")
        self._m_requests.inc(endpoint=resource or "root")
        if resource == "tenants" and not rest and reader:
            return self._tenants()
        if resource == "verdicts" and not rest and reader:
            return self._verdicts(query)
        if resource == "cases" and len(rest) == 1 and reader:
            return self._case(rest[0])
        if (
            resource == "cases"
            and len(rest) == 2
            and rest[1] == "trail"
            and reader
        ):
            return self._trail(rest[0], query)
        if resource == "quarantine" and not rest and reader:
            return self._quarantine()
        if resource == "quarantine" and len(rest) == 1 and reader:
            return self._quarantine_case(rest[0])
        if (
            resource == "quarantine"
            and len(rest) == 2
            and rest[1] == "requeue"
            and method == "POST"
        ):
            return self._requeue(rest[0], query)
        if (
            resource == "quarantine"
            and len(rest) == 2
            and rest[1] == "dismiss"
            and method == "POST"
        ):
            return self._dismiss(rest[0], body)
        if resource == "reaudit" and not rest and method == "POST":
            return self._reaudit(body)
        if resource == "config" and not rest and reader:
            return self._config_info()
        raise _ApiError(404, f"no such endpoint: {method} {path}")

    # -- verdict queries -------------------------------------------------
    def _records(self, digests: bool = True) -> dict[str, dict]:
        """Per-case records: live from the shards, or a cached replay.

        The live read races ingest by construction (that is the point
        of a control plane); the router's shard table may shrink mid-
        iteration when a dead shard is reassigned, which CPython
        surfaces as a RuntimeError — retry, the next snapshot is just as
        good.  ``digests=False`` lets a live read skip the per-case
        replay digest (standalone records carry it regardless: they come
        from one cached replay).
        """
        if self.router is not None:
            for _ in range(16):
                try:
                    return self.router.results(digests=digests)
                except RuntimeError:
                    continue
            return self.router.results(digests=digests)
        if self.config is None:
            raise _ApiError(
                400,
                "standalone verdict queries need an audit config "
                "(--config) to replay the store with",
            )
        assert self._store_path is not None
        from repro.control.reaudit import _replay

        with AuditStore(self._store_path) as store:
            length = len(store)
            if (
                self._offline_cache is not None
                and self._offline_cache[0] == length
            ):
                return self._offline_cache[1]
            records = _replay(self.config, store)
        self._offline_cache = (length, records)
        return records

    def _tenants(self) -> tuple[int, dict, dict]:
        records = self._records(digests=False)
        quarantined = self._quarantined_kinds()
        per_purpose: dict[Optional[str], dict] = {}
        for record in records.values():
            purpose = record.get("purpose")
            bucket = per_purpose.setdefault(
                purpose, {"cases": 0, "states": {}, "quarantined": 0}
            )
            bucket["cases"] += 1
            state = record.get("state") or "unknown"
            bucket["states"][state] = bucket["states"].get(state, 0) + 1
        for case in quarantined:
            purpose = records.get(case, {}).get("purpose")
            if purpose in per_purpose:
                per_purpose[purpose]["quarantined"] += 1
        fingerprints = (
            self.config.tenant_fingerprints()
            if self.config is not None
            else {}
        )
        tenants = []
        purposes: set = set(per_purpose)
        if self.config is not None:
            purposes |= {t.purpose for t in self.config.tenants}
        elif self.router is not None:
            purposes |= set(self.router.registry.purposes())
        for purpose in sorted(purposes, key=lambda p: (p is None, p or "")):
            bucket = per_purpose.get(
                purpose, {"cases": 0, "states": {}, "quarantined": 0}
            )
            row: dict = {"purpose": purpose, **bucket}
            if purpose in fingerprints:
                row["fingerprint"] = fingerprints[purpose]
            if self.config is not None and purpose is not None:
                tenant = self.config.tenant(purpose)
                if tenant is not None:
                    row["prefix"] = tenant.prefix
            tenants.append(row)
        return 200, {"tenants": tenants}, {}

    def _verdicts(self, query: dict) -> tuple[int, dict, dict]:
        # Filter digest-free records; only the returned page pays for
        # its digests.
        records = self._records(digests=False)
        purpose = query.get("purpose")
        outcome = query.get("outcome")
        window = self._time_window_cases(query)
        limit = _int_param(query, "limit", DEFAULT_PAGE)
        if not 0 < limit <= MAX_PAGE:
            raise _ApiError(400, f"limit must be in 1..{MAX_PAGE}")
        after_case = query.get("after_case")
        selected = []
        for case in sorted(records):
            if after_case is not None and case <= after_case:
                continue
            record = records[case]
            if purpose is not None and record.get("purpose") != purpose:
                continue
            if outcome is not None and record.get("state") != outcome:
                continue
            if window is not None and case not in window:
                continue
            selected.append(record)
            if len(selected) > limit:
                break
        more = len(selected) > limit
        page = selected[:limit]
        if self.router is not None:
            page = [self.router.case_record(record["case"]) for record in page]
        payload: dict = {"verdicts": page, "count": len(page)}
        if more and page:
            payload["next_after_case"] = page[-1]["case"]
        return 200, payload, {}

    def _time_window_cases(self, query: dict) -> Optional[set[str]]:
        """Cases with an entry inside [since, until] (None: no filter)."""
        since = _ts_param(query, "since")
        until = _ts_param(query, "until")
        if since is None and until is None:
            return None
        if self._store_path is None:
            raise _ApiError(
                400,
                "time-range filters need a durable audit store "
                "(the daemon was started without --store)",
            )
        with AuditStore(self._store_path) as store:
            return set(store.query(since=since, until=until).cases())

    # -- drill-down ------------------------------------------------------
    def _case(self, case: str) -> tuple[int, dict, dict]:
        records = self._records()
        record = records.get(case)
        if record is None:
            raise _ApiError(404, f"unknown case {case!r}")
        payload = dict(record)
        payload["findings"] = self._findings(case)
        if self.router is not None:
            ctx = self.router.case_trace(case)
            payload["trace"] = ctx.trace_id if ctx is not None else None
            payload["quarantined"] = case in self.router.quarantined_cases()
        else:
            payload["quarantined"] = case in self._quarantined_kinds()
        payload["control_log"] = self._control_records(case)
        return 200, payload, {}

    def _findings(self, case: str) -> list[dict]:
        """The case's infringement findings (live: from its monitor)."""
        if self.router is not None:
            for shard in self.router._shards.values():
                if case in shard.monitor.cases():
                    return [
                        {"kind": i.kind.value, "detail": i.detail}
                        for i in shard.monitor.infringements
                        if i.case == case
                    ]
            return []
        if self.config is None or self._store_path is None:
            return []
        from repro.core.monitor import OnlineMonitor

        monitor = OnlineMonitor(
            self.config.registry(), hierarchy=self.config.hierarchy
        )
        with AuditStore(self._store_path) as store:
            for entry in store.query(case=case):
                monitor.observe(entry)
        return [
            {"kind": i.kind.value, "detail": i.detail}
            for i in monitor.infringements
            if i.case == case
        ]

    def _trail(self, case: str, query: dict) -> tuple[int, dict, dict]:
        if self._store_path is None:
            raise _ApiError(
                400,
                "trail drill-down needs a durable audit store "
                "(the daemon was started without --store)",
            )
        after_seq = _int_param(query, "after_seq", 0)
        limit = _int_param(query, "limit", DEFAULT_PAGE)
        if not 0 < limit <= MAX_PAGE:
            raise _ApiError(400, f"limit must be in 1..{MAX_PAGE}")
        if self.router is not None:
            # Entries buffered for the writer are invisible to a fresh
            # connection until flushed; make the page current.
            self.router.flush()
            self.router._writer_sync(timeout=5.0)
        with AuditStore(self._store_path) as store:
            page = store.entries_with_seq(
                case=case, after_seq=after_seq, limit=limit + 1
            )
        more = len(page) > limit
        page = page[:limit]
        entries = [
            {
                "seq": seq,
                "user": entry.user,
                "role": entry.role,
                "action": entry.action,
                "obj": str(entry.obj) if entry.obj is not None else None,
                "task": entry.task,
                "case": entry.case,
                "ts": entry.timestamp.isoformat(),
                "status": entry.status.value,
            }
            for seq, entry in page
        ]
        payload: dict = {"case": case, "entries": entries}
        if more and entries:
            payload["next_after_seq"] = entries[-1]["seq"]
        return 200, payload, {}

    # -- quarantine triage ----------------------------------------------
    def _quarantined_kinds(self) -> dict[str, str]:
        if self.router is not None:
            return {
                case: kind.value
                for case, kind in self.router.quarantined_cases().items()
            }
        dismissed = {
            record["case"]
            for record in self._control_records(None)
            if record["action"] == "dismiss"
        }
        return {
            case: record["failure_kind"]
            for case, record in self._records().items()
            if record.get("failure_kind") is not None
            and case not in dismissed
        }

    def _quarantine(self) -> tuple[int, dict, dict]:
        kinds = self._quarantined_kinds()
        records = self._records()
        cases = [
            {
                "case": case,
                "kind": kind,
                "purpose": records.get(case, {}).get("purpose"),
                "state": records.get(case, {}).get("state"),
            }
            for case, kind in sorted(kinds.items())
        ]
        return 200, {"quarantined": cases, "count": len(cases)}, {}

    def _quarantine_case(self, case: str) -> tuple[int, dict, dict]:
        kinds = self._quarantined_kinds()
        if case not in kinds:
            raise _ApiError(404, f"case {case!r} is not quarantined")
        status, payload, headers = self._case(case)
        payload["kind"] = kinds[case]
        return status, payload, headers

    def _requeue(self, case: str, query: dict) -> tuple[int, dict, dict]:
        if self.router is None:
            raise _ApiError(
                409,
                "requeue needs a live service (this control plane is "
                "standalone over a store file)",
            )
        wait_s = float(query.get("wait_s", 5.0))
        result = self.router.requeue_case(case, wait_s=wait_s)
        self._tel.events.emit(
            CONTROL_REQUEUE,
            case=case,
            accepted=result.accepted,
            state=result.state,
            reason=result.reason,
        )
        payload = {
            "case": case,
            "accepted": result.accepted,
            "state": result.state,
            "replayed_entries": result.replayed_entries,
            "shard": result.shard or None,
            "reason": result.reason or None,
        }
        if result.busy:
            # Retry-After carries the wire protocol's retry_after_s —
            # the same hint a busy `entry` op gets.
            return (
                503,
                {**payload, "retry_after_s": result.retry_after_s},
                {"Retry-After": _retry_after(result.retry_after_s)},
            )
        if not result.accepted:
            return 409, payload, {}
        self._record_control("requeue", case, "operator", result.reason or "")
        return 200, payload, {}

    def _dismiss(self, case: str, body: dict) -> tuple[int, dict, dict]:
        actor = str(body.get("actor", "operator"))
        reason = str(body.get("reason", ""))
        if self.router is not None:
            kind = self.router.dismiss_quarantined(case)
            if kind is None:
                raise _ApiError(404, f"case {case!r} is not quarantined")
            kind_value = kind.value
        else:
            kinds = self._quarantined_kinds()
            if case not in kinds:
                raise _ApiError(404, f"case {case!r} is not quarantined")
            kind_value = kinds[case]
        recorded = self._record_control("dismiss", case, actor, reason)
        self._tel.events.emit(
            CONTROL_DISMISS, case=case, kind=kind_value, actor=actor
        )
        return (
            200,
            {
                "case": case,
                "dismissed": True,
                "kind": kind_value,
                "recorded": recorded,
            },
            {},
        )

    def _record_control(
        self, action: str, case: str, actor: str, reason: str
    ) -> bool:
        """Durably log an operator action (False without a store)."""
        if self._store_path is None:
            return False
        with AuditStore(self._store_path) as store:
            store.record_control(action, case=case, actor=actor, reason=reason)
        return True

    def _control_records(self, case: Optional[str]) -> list[dict]:
        if self._store_path is None:
            return []
        with AuditStore(self._store_path) as store:
            return store.control_records(case=case)

    # -- re-audit --------------------------------------------------------
    def _reaudit(self, body: dict) -> tuple[int, dict, dict]:
        if self._store_path is None:
            raise _ApiError(
                400,
                "re-audit needs a durable audit store "
                "(the daemon was started without --store)",
            )
        config = self.config
        config_path = body.get("config")
        if config_path is not None:
            from repro.control.config import load_config

            try:
                config = load_config(str(config_path))
            except ConfigError as error:
                raise _ApiError(400, str(error)) from error
        if config is None:
            raise _ApiError(
                400, "re-audit needs an audit config (body key 'config')"
            )
        previous = self._baseline_ledger(body)
        if self.router is not None:
            # Make the store cover everything accepted so far; replays
            # read only committed rows.
            self.router.flush()
            self.router._writer_sync(timeout=10.0)
        log_path = body.get("fingerprint_log")
        if previous is None:
            report = full_reaudit(
                config,
                self._store_path,
                telemetry=self._tel,
                fingerprint_log=log_path,
            )
        else:
            report = incremental_reaudit(
                config,
                self._store_path,
                previous,
                telemetry=self._tel,
                fingerprint_log=log_path,
            )
        self._m_reaudit_cases.inc(report.replayed_cases, mode=report.mode)
        self._tel.events.emit(CONTROL_REAUDIT, **report.to_dict())
        ledger_out = body.get("ledger_out")
        if ledger_out is not None:
            report.ledger.save(str(ledger_out))
        payload = report.to_dict()
        if body.get("include_records"):
            payload["records"] = report.ledger.records
        return 200, payload, {}

    def _baseline_ledger(self, body: dict) -> Optional[ReauditLedger]:
        """The previous ledger to diff against (None: cold full run).

        Priority: ``"full": true`` forces a cold run; else an explicit
        ledger file in the request; else, on a live daemon with a
        config, the running state itself (current fingerprints +
        current records) — so a re-audit against an *edited* config
        replays exactly the tenants whose fingerprints moved.
        """
        if body.get("full"):
            return None
        ledger_path = body.get("ledger")
        if ledger_path is not None:
            try:
                return ReauditLedger.load(str(ledger_path))
            except (OSError, ValueError) as error:
                raise _ApiError(
                    400, f"cannot read ledger {ledger_path!r}: {error}"
                ) from error
        if self.router is not None and self.config is not None:
            records = {
                case: {k: v for k, v in record.items() if k != "shard"}
                for case, record in self._records().items()
            }
            return ReauditLedger(
                config_fingerprint=self.config.fingerprint(),
                fingerprints=self.config.tenant_fingerprints(),
                records=records,
            )
        return None

    # -- config ----------------------------------------------------------
    def _config_info(self) -> tuple[int, dict, dict]:
        if self.config is None:
            raise _ApiError(404, "no audit config is mounted")
        return (
            200,
            {
                "version": self.config.version,
                "source": self.config.source,
                "fingerprint": self.config.fingerprint(),
                "tenants": self.config.tenant_fingerprints(),
                "budgets": dict(self.config.budgets),
            },
            {},
        )


class _ApiError(ReproError):
    """An error with an HTTP status (and optional extra headers)."""

    def __init__(self, status: int, message: str, headers: Optional[dict] = None):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


def _int_param(query: dict, name: str, default: int) -> int:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as error:
        raise _ApiError(400, f"{name} must be an integer") from error


def _ts_param(query: dict, name: str) -> Optional[datetime]:
    raw = query.get(name)
    if raw is None:
        return None
    try:
        return datetime.fromisoformat(raw)
    except ValueError as error:
        raise _ApiError(
            400, f"{name} must be an ISO-8601 timestamp"
        ) from error


def _retry_after(seconds: float) -> str:
    """The Retry-After value: the wire hint's raw decimal seconds."""
    text = f"{seconds:.3f}".rstrip("0").rstrip(".")
    return text or "0"


def case_purpose_of(registry, case: str) -> Optional[str]:
    """Registry lookup that answers None instead of raising."""
    try:
        return registry.purpose_of_case(case)
    except UnknownPurposeError:
        return None
