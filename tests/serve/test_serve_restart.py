"""The restart contract: a daemon with a WAL resumes on its own.

Boots the real ``repro serve --store S --wal-dir W`` twice on the same
files, with no other flag.  A fresh daemon's first stdout line is
``listening``; a daemon that finds a non-empty record prints
``recovered`` before it, and carries on where the first one stopped:
the per-case numbering continues and the verdicts are the batch
auditor's.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.core.auditor import PurposeControlAuditor
from repro.scenarios import paper_audit_trail, process_registry, role_hierarchy
from repro.serve import AuditStreamClient, entry_to_message
from repro.testing import canonical_digest


def _start(tmp_path) -> tuple[subprocess.Popen, list[dict]]:
    """Boot the daemon; returns it and its startup lines, ``listening``
    last."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--scenario", "paper",
            "--store", str(tmp_path / "audit.db"),
            "--wal-dir", str(tmp_path / "wal"),
            "--port", "0", "--http-port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    lines = []
    while not lines or "listening" not in lines[-1]:
        line = process.stdout.readline()
        if not line:
            process.kill()
            raise AssertionError(process.communicate(timeout=10)[1])
        lines.append(json.loads(line))
    return process, lines


def _stop(process: subprocess.Popen) -> dict:
    process.send_signal(signal.SIGTERM)
    stdout, stderr = process.communicate(timeout=60)
    assert process.returncode == 0, stderr
    return json.loads(stdout.splitlines()[-1])["drained"]


@pytest.fixture
def daemons():
    started: list[subprocess.Popen] = []
    yield started
    for process in started:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def test_a_restart_on_the_same_files_resumes_the_case(tmp_path, daemons):
    head = [entry for entry in paper_audit_trail() if entry.case == "HT-1"]

    first, lines = _start(tmp_path)
    daemons.append(first)
    assert [list(line) for line in lines] == [["listening"]]
    listening = lines[0]["listening"]
    with AuditStreamClient(listening["host"], listening["port"]) as client:
        for seq, entry in enumerate(head[:5], start=1):
            client.send(entry_to_message(entry, seq=seq))
        assert client.sync()["received"] == 5
    assert _stop(first)["entries_written"] == 5

    second, lines = _start(tmp_path)
    daemons.append(second)
    assert [list(line) for line in lines] == [["recovered"], ["listening"]]
    assert lines[0]["recovered"]["replayed"] == 5
    listening = lines[1]["listening"]
    with AuditStreamClient(listening["host"], listening["port"]) as client:
        client.send(entry_to_message(head[5], seq=6))
        assert client.sync()["received"] == 1  # accepted, not refused
        for seq, entry in enumerate(head[6:], start=7):
            client.send(entry_to_message(entry, seq=seq))
        assert client.sync()["received"] == len(head) - 5
        assert not [e for e in client.events_seen if e["event"] == "busy"]
        record = client.results(["HT-1"])["HT-1"]
    report = PurposeControlAuditor(
        process_registry(), hierarchy=role_hierarchy()
    ).audit(paper_audit_trail())
    assert record["digest"] == canonical_digest(report.cases["HT-1"].replay)
    assert _stop(second)["entries_written"] == len(head) - 5
