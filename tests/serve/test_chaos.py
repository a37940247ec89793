"""Chaos: ``kill -9`` the real daemon mid-stream, restart, compare.

End to end over real sockets and a real process: boot
``repro serve --wal-dir``, stream part of the paper's trail with
sequence numbers, SIGKILL the daemon, restart it on the same files
(the restart resumes them on its own), finish the stream through the
resilient shipper, and assert the per-case verdict digests are
byte-identical to an uninterrupted batch replay — for 1/3/5 shards,
interpreted and compiled.
"""

import json
import os
import random
import signal
import subprocess
import sys

import pytest

from repro.audit.store import AuditStore
from repro.core.auditor import PurposeControlAuditor
from repro.scenarios import (
    paper_audit_trail,
    process_registry,
    role_hierarchy,
)
from repro.serve import ResilientAuditClient
from repro.testing import canonical_digest


def _batch_digests():
    report = PurposeControlAuditor(
        process_registry(), hierarchy=role_hierarchy()
    ).audit(paper_audit_trail())
    return {
        case: canonical_digest(result.replay)
        for case, result in report.cases.items()
        if result.replay is not None
    }


def _spawn(tmp_path, shards: int, compiled: bool, resumes: bool = False):
    """Boot ``repro serve`` as an operator would; returns (proc, ports,
    the ``recovered`` report a restart on a non-empty record prints)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--scenario", "paper",
        "--shards", str(shards),
        "--store", str(tmp_path / "audit.db"),
        "--wal-dir", str(tmp_path / "wal"),
        "--flush-interval", "0.05",
        "--http-port", "-1",
    ]
    if compiled:
        argv.append("--compiled")
    process = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    recovered = None
    line = process.stdout.readline()
    assert line, process.stderr.read()
    report = json.loads(line)
    if resumes:
        recovered = report["recovered"]
        line = process.stdout.readline()
        assert line, process.stderr.read()
        report = json.loads(line)
    return process, report["listening"], recovered


@pytest.mark.parametrize("compiled", [False, True], ids=["interp", "compiled"])
@pytest.mark.parametrize("shards", [1, 3, 5])
class TestKillNineRecover:
    def test_sigkill_midstream_then_recover_matches_batch(
        self, tmp_path, shards, compiled
    ):
        trail = list(paper_audit_trail())
        cut = len(trail) // 2
        first, listening, _ = _spawn(tmp_path, shards, compiled)
        try:
            shipper = ResilientAuditClient(
                listening["host"], listening["port"], rng=random.Random(11)
            )
            outcome = shipper.ship(trail[:cut])
            assert outcome["accepted"] == cut
            # The stream is mid-flight and synced; now the machine
            # "loses power".
            first.send_signal(signal.SIGKILL)
            first.wait(timeout=30)
            assert first.returncode == -signal.SIGKILL
        finally:
            if first.poll() is None:
                first.kill()
                first.wait(timeout=10)

        second, listening, recovered = _spawn(
            tmp_path, shards, compiled, resumes=True
        )
        try:
            # The daemon reported its reconstruction before listening.
            assert recovered["store_intact"] in (True, None)
            assert recovered["replayed"] == cut
            # A shipper that lost its ack state replays from the top:
            # the recovered prefix dedupes, the tail lands fresh.
            resumed = ResilientAuditClient(
                listening["host"], listening["port"], rng=random.Random(13)
            )
            outcome = resumed.ship(trail)
            # "accepted" counts entries the server owns — the recovered
            # prefix acks as duplicates, the tail lands fresh.
            assert outcome["accepted"] == len(trail)
            assert outcome["duplicates"] == cut
            resumed.sync()

            results = resumed.results()
            digests = {
                case: info["digest"]
                for case, info in results.items()
                if info["digest"] is not None
            }
            assert digests == _batch_digests()

            resumed.bye()
            second.send_signal(signal.SIGTERM)
            stdout, stderr = second.communicate(timeout=60)
            assert second.returncode == 0, stderr
            drained = json.loads(stdout.splitlines()[-1])["drained"]
            assert drained["store_intact"] is True
        finally:
            if second.poll() is None:
                second.kill()
                second.wait(timeout=10)

        # The on-disk chain holds the whole trail exactly once.
        with AuditStore(str(tmp_path / "audit.db")) as store:
            assert len(store) == len(trail)
            store.verify_integrity()
