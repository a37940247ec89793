"""Workload inputs: a seeded hospital day and the answers it must get.

Everything here runs outside the timed windows.  The program only sees
what a user would hand it — an XES file, process documents, wire lines —
never the seed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import quoteattr

from repro.audit.model import AuditTrail, LogEntry
from repro.bpmn.serialize import dumps
from repro.core.auditor import PurposeControlAuditor
from repro.scenarios import (
    clinical_trial_process,
    healthcare_treatment_process,
    hospital_day,
    process_registry,
    role_hierarchy,
)
from repro.scenarios.workloads import VIOLATION_KINDS
from repro.serve.protocol import entry_to_message
from repro.testing.differential import canonical_digest

#: All four injected violation classes, equally likely.
VIOLATION_MIX = {kind: 1.0 for kind in VIOLATION_KINDS}

#: The paper's role specializations, as ``--role`` flags.
ROLES = (
    "GP:Physician",
    "Cardiologist:Physician",
    "Radiologist:Physician",
    "MedicalLabTech:MedicalTech",
)


@dataclass
class Day:
    """One generated hospital day: its entries in trail order and the
    ground truth — the cases the generator made infringing."""

    entries: list[LogEntry]
    infringing: set[str]

    def by_case(self) -> dict[str, list[LogEntry]]:
        cases: dict[str, list[LogEntry]] = {}
        for entry in self.entries:
            cases.setdefault(entry.case, []).append(entry)
        return cases


def hospital(cases: int, seed: int, limit: int | None = None,
             flip_truth: bool = False) -> Day:
    """``hospital_day`` with every violation kind; *limit* keeps the first
    entries in trail order.  Every violation breaks its case's opening
    entry, so any non-empty prefix of an infringing case still infringes.
    ``flip_truth`` deliberately corrupts the ground truth of one case."""
    workload = hospital_day(cases, seed=seed, violation_mix=VIOLATION_MIX)
    entries = workload.trail.entries[:limit]
    present = {entry.case for entry in entries}
    infringing = {
        case for case, compliant in workload.ground_truth.items()
        if not compliant and case in present
    }
    if flip_truth:
        infringing ^= {entries[0].case}
    return Day(entries, infringing)


def write_xes(day: Day, path: Path) -> None:
    """The day as an XES log, one trace per case, in the layout
    :func:`repro.audit.xes.export_xes` writes."""

    def attribute(kind: str, key: str, value: str) -> str:
        return f"<{kind} key={quoteattr(key)} value={quoteattr(value)} />"

    lines = [
        "<?xml version='1.0' encoding='utf-8'?>",
        '<log xes.version="1.0" xes.features="nested-attributes">',
        attribute("string", "concept:name", "hospital-day"),
    ]
    for case, entries in day.by_case().items():
        lines += ["<trace>", attribute("string", "concept:name", case)]
        for entry in entries:
            lines += [
                "<event>",
                attribute("string", "concept:name", entry.task),
                attribute("string", "org:resource", entry.user),
                attribute("string", "org:role", entry.role),
                attribute("date", "time:timestamp", entry.timestamp.isoformat()),
                attribute("string", "lifecycle:transition", "complete"),
                attribute("string", "purpose:action", entry.action),
            ]
            if entry.obj is not None:
                lines.append(attribute("string", "purpose:object", str(entry.obj)))
            lines += [
                attribute("string", "purpose:status", entry.status.value),
                "</event>",
            ]
        lines.append("</trace>")
    lines.append("</log>")
    path.write_text("\n".join(lines) + "\n")


def process_flags(directory: Path) -> list[str]:
    """Write the paper's two processes; return their CLI flags."""
    treatment = directory / "treatment.json"
    trial = directory / "trial.json"
    treatment.write_text(dumps(healthcare_treatment_process()))
    trial.write_text(dumps(clinical_trial_process()))
    flags = ["--process", f"HT:{treatment}", "--process", f"CT:{trial}"]
    for role in ROLES:
        flags += ["--role", role]
    return flags


def wire_lines(day: Day) -> list[bytes]:
    """One protocol ``entry`` line per entry, as the reference client
    encodes them."""
    return [
        json.dumps(entry_to_message(entry), separators=(",", ":")).encode() + b"\n"
        for entry in day.entries
    ]


def reference_digests(day: Day) -> dict[str, str]:
    """Per-case canonical digests of an in-process batch replay — what the
    daemon's ``results`` must match byte for byte.  Compiled replay keeps
    this to seconds; the repository's tier-differential suite holds it
    byte-identical to interpreted Algorithm 1."""
    auditor = PurposeControlAuditor(
        process_registry(), hierarchy=role_hierarchy(), compiled=True
    )
    return {
        case: canonical_digest(auditor.audit_case(case, AuditTrail(entries)).replay)
        for case, entries in day.by_case().items()
    }


_REPORT_LINE = re.compile(r"^  (\S+) \[[^\]]*\]: (\S+)")


def flagged_in_report(report: str) -> tuple[int, set[str]]:
    """``(cases audited, cases not OK)`` from a ``repro audit`` report."""
    audited = int(report.split(" case(s)", 1)[0].rsplit(" ", 1)[-1])
    flagged = set()
    for line in report.splitlines():
        match = _REPORT_LINE.match(line)
        if match and match.group(2) != "OK":
            flagged.add(match.group(1))
    return audited, flagged
