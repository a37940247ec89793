"""Incremental re-audit: replay only what a config change affected.

The paper's auditor is a batch tool — change the process model and you
re-run everything.  A standing service can do better: each tenant's
audit inputs are content-fingerprinted
(:meth:`~repro.control.config.AuditConfig.tenant_fingerprints`), so
when a config changes the control plane diffs fingerprints per purpose
and replays **only the cases of changed tenants** from the audit
store, carrying every other tenant's verdicts forward from the
previous :class:`ReauditLedger`.

The safety argument is differential, not hopeful: cases are
independent (Section 7) and a case's verdict is a pure function of its
entry sequence and its tenant's (process, hierarchy, policy-prefix)
bundle — exactly what the fingerprint covers.  The test suite proves
it mechanically: for every bundled scenario,
``incremental_reaudit(new, store, old_ledger)`` produces a ledger
byte-identical (:meth:`ReauditLedger.canonical`) to a cold
:func:`full_reaudit` of the new config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.audit.store import AuditStore
from repro.control.config import AuditConfig
from repro.core.monitor import OnlineMonitor
from repro.errors import UnknownPurposeError

LEDGER_VERSION = 1


@dataclass
class ReauditLedger:
    """What one re-audit concluded, keyed for the next incremental run.

    ``records`` maps each case id to its final word — the engine's
    :meth:`~repro.core.monitor.OnlineMonitor.case_record`, as
    :meth:`~repro.serve.core.ShardRouter.results` returns it.
    ``fingerprints`` are the per-tenant content
    hashes the verdicts were computed under; the next incremental run
    diffs against them.
    """

    config_fingerprint: str
    fingerprints: dict[str, str] = field(default_factory=dict)
    records: dict[str, dict] = field(default_factory=dict)

    def canonical(self) -> bytes:
        """The byte-equality form the differential suite compares.

        Sorted keys, compact separators — two ledgers are the same
        audit conclusion iff these bytes match.
        """
        return json.dumps(
            {
                "version": LEDGER_VERSION,
                "config": self.config_fingerprint,
                "fingerprints": self.fingerprints,
                "records": self.records,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")

    def to_document(self) -> dict:
        return {
            "version": LEDGER_VERSION,
            "config": self.config_fingerprint,
            "fingerprints": dict(self.fingerprints),
            "records": dict(self.records),
        }

    @classmethod
    def from_document(cls, document: dict) -> "ReauditLedger":
        return cls(
            config_fingerprint=str(document.get("config", "")),
            fingerprints=dict(document.get("fingerprints", {})),
            records=dict(document.get("records", {})),
        )

    def save(self, path: str) -> None:
        Path(path).write_text(
            json.dumps(self.to_document(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str) -> "ReauditLedger":
        return cls.from_document(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


@dataclass(frozen=True)
class ReauditReport:
    """What a re-audit run did and why."""

    mode: str  # "full" | "incremental"
    changed_purposes: tuple[str, ...]
    added_purposes: tuple[str, ...]
    removed_purposes: tuple[str, ...]
    replayed_cases: int
    reused_cases: int
    ledger: ReauditLedger

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "changed_purposes": list(self.changed_purposes),
            "added_purposes": list(self.added_purposes),
            "removed_purposes": list(self.removed_purposes),
            "replayed_cases": self.replayed_cases,
            "reused_cases": self.reused_cases,
            "config_fingerprint": self.ledger.config_fingerprint,
        }


def _replay(
    config: AuditConfig,
    store: AuditStore,
    cases: Optional[set[str]] = None,
    telemetry=None,
) -> OnlineMonitor:
    """Replay store entries through a fresh engine, and return it.

    ``cases=None`` replays everything; a set restricts the replay to
    those cases (the incremental path).  Entries stream through in
    store order a page at a time (:meth:`AuditStore.iter_entries`), so
    a million-entry store is never materialized and the engine sees
    exactly the sequence the service observed live: its records are
    byte-identical to the streaming run's
    (``tests/serve``' differential suites established that equivalence
    for the monitor itself).
    """
    monitor = OnlineMonitor(
        config.registry(),
        hierarchy=config.hierarchy,
        telemetry=telemetry,
        automaton_dir=config.serve_config().automaton_dir,
    )
    for entry in store.iter_entries():
        if cases is None or entry.case in cases:
            monitor.observe(entry)
    monitor.save_automata()
    return monitor


def records_of(monitor: OnlineMonitor) -> dict[str, dict]:
    """Every replayed case's record, keyed by case id."""
    return {case: monitor.case_record(case) for case in monitor.cases()}


def full_reaudit(
    config: AuditConfig,
    store_path: str,
    telemetry=None,
    fingerprint_log: Optional[str] = None,
) -> ReauditReport:
    """Cold re-audit: every case in the store, from scratch."""
    fingerprints = config.tenant_fingerprints()
    with AuditStore(store_path) as store:
        records = records_of(_replay(config, store, telemetry=telemetry))
    ledger = ReauditLedger(
        config_fingerprint=config.fingerprint(),
        fingerprints=fingerprints,
        records=records,
    )
    report = ReauditReport(
        mode="full",
        changed_purposes=tuple(sorted(fingerprints)),
        added_purposes=(),
        removed_purposes=(),
        replayed_cases=len(records),
        reused_cases=0,
        ledger=ledger,
    )
    _log_fingerprints(fingerprint_log, config, report)
    return report


def incremental_reaudit(
    config: AuditConfig,
    store_path: str,
    previous: ReauditLedger,
    telemetry=None,
    fingerprint_log: Optional[str] = None,
) -> ReauditReport:
    """Replay only the cases whose tenant's fingerprint changed.

    A case is **reused** from *previous* iff its purpose's fingerprint
    is unchanged *and* the previous run knew the case under the same
    purpose; everything else — changed tenants, new tenants, cases the
    new registry maps differently (a prefix change), cases the previous
    ledger never saw — is replayed.  Tenants removed from the config
    drop out of the ledger (their cases now audit as unknown-purpose,
    which is a replay, not a reuse).
    """
    fingerprints = config.tenant_fingerprints()
    changed = {
        purpose
        for purpose, fp in fingerprints.items()
        if previous.fingerprints.get(purpose) != fp
    }
    added = {
        purpose
        for purpose in fingerprints
        if purpose not in previous.fingerprints
    }
    removed = {
        purpose
        for purpose in previous.fingerprints
        if purpose not in fingerprints
    }
    registry = config.registry()

    with AuditStore(store_path) as store:
        all_cases = store.cases()
        replay: set[str] = set()
        reused: dict[str, dict] = {}
        for case in all_cases:
            try:
                purpose = registry.purpose_of_case(case)
            except UnknownPurposeError:
                purpose = None
            prev = previous.records.get(case)
            if (
                purpose is not None
                and purpose not in changed
                and prev is not None
                and prev.get("purpose") == purpose
            ):
                reused[case] = prev
            elif (
                purpose is None
                and prev is not None
                and prev.get("purpose") is None
                # An unknown-purpose verdict only carries forward while
                # the tenant set is stable: any removal/addition could
                # be the reason the case was (or now is) unroutable.
                and not removed
                and not added
            ):
                reused[case] = prev
            else:
                replay.add(case)
        records = (
            records_of(
                _replay(config, store, cases=replay, telemetry=telemetry)
            )
            if replay
            else {}
        )
    merged = dict(reused)
    merged.update(records)
    ledger = ReauditLedger(
        config_fingerprint=config.fingerprint(),
        fingerprints=fingerprints,
        records=merged,
    )
    report = ReauditReport(
        mode="incremental",
        changed_purposes=tuple(sorted(changed)),
        added_purposes=tuple(sorted(added)),
        removed_purposes=tuple(sorted(removed)),
        replayed_cases=len(records),
        reused_cases=len(reused),
        ledger=ledger,
    )
    _log_fingerprints(fingerprint_log, config, report)
    return report


def _log_fingerprints(
    path: Optional[str], config: AuditConfig, report: ReauditReport
) -> None:
    """Append one forensics line per run (the CI artifact on failure)."""
    if path is None:
        return
    line = {
        "source": config.source,
        "version": config.version,
        **report.to_dict(),
        "fingerprints": report.ledger.fingerprints,
    }
    with open(path, "a", encoding="utf-8") as sink:
        sink.write(json.dumps(line, sort_keys=True) + "\n")
