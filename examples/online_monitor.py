#!/usr/bin/env python
"""Streaming purpose control: catch infringements as they happen.

Batch audits (examples/healthcare_audit.py) find the clinical-trial
attack after the fact.  This example attaches the :class:`OnlineMonitor`
to the live log stream instead: every entry is replayed the moment it is
recorded, the EPR harvesting raises alerts on the *first* offending read
of each fake case, and a nightly sweep times out cases that exceeded the
treatment process's duration budget.

Run:  python examples/online_monitor.py
"""

from datetime import datetime, timedelta

from repro.core import OnlineMonitor, TemporalConstraints
from repro.scenarios import (
    paper_audit_trail,
    process_registry,
    role_hierarchy,
)


def main():
    monitor = OnlineMonitor(
        process_registry(),
        hierarchy=role_hierarchy(),
        temporal={
            "treatment": TemporalConstraints(
                max_case_duration=timedelta(days=60),
                max_inactivity=timedelta(days=45),
            )
        },
    )

    print("streaming the Fig. 4 log into the monitor ...\n")
    for entry in paper_audit_trail():
        for alert in monitor.observe(entry).raised:
            stamp = entry.timestamp.strftime("%Y-%m-%d %H:%M")
            print(f"ALERT {stamp}  {alert}")

    print("\nnightly sweep (2010-07-01): timing out overdue open cases ...")
    for violation in monitor.sweep(datetime(2010, 7, 1)):
        print(f"TIMEOUT {violation}")

    print("\nfinal monitor state:")
    stats = monitor.statistics()
    for key in ("open", "completed", "infringing", "timed-out", "entries"):
        print(f"  {key:<10} {stats[key]}")
    print(f"  total alerts: {len(monitor.infringements)}")


if __name__ == "__main__":
    main()
