"""Chaos: ``kill -9`` the real daemon mid-stream, restart, compare.

End to end over real sockets and a real process: boot ``repro serve``,
stream part of the paper's trail with sequence numbers, SIGKILL the
daemon, restart it on the same files (the restart resumes them on its
own), finish the stream through the resilient shipper, and assert the
per-case verdict digests are byte-identical to interpreted replay of
the uninterrupted trail — with a write-ahead log and tables grown from
the stream, or compiled into ``--automaton-dir``, and on the store
alone, where ``synced`` waits for the store's commit.
"""

import json
import os
import random
import signal
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.audit.model import AuditTrail
from repro.audit.store import AuditStore
from repro.audit.xes import export_xes, import_xes
from repro.scenarios import (
    paper_audit_trail,
    process_registry,
    role_hierarchy,
)
from repro.serve import AuditStreamClient, ResilientAuditClient
from tests.oracle import interpreted_digests

BOOTS = ("grown", "compiled", "store-only")


def _spawn(tmp_path, boot: str, resumes: bool = False):
    """Boot ``repro serve`` as an operator would; returns (proc, ports,
    the ``recovered`` report a restart on a non-empty record prints)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--scenario", "paper",
        "--store", str(tmp_path / "audit.db"),
        "--http-port", "-1",
    ]
    if boot == "store-only":
        # No flush tick before the kill: only `sync` can commit.
        argv += ["--flush-interval", "3600"]
    else:
        argv += ["--flush-interval", "0.05", "--wal-dir", str(tmp_path / "wal")]
    if boot == "compiled":
        argv += ["--automaton-dir", str(tmp_path / "automata")]
    process = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
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
    except BaseException:
        # A boot that did not report as expected must not outlive the test.
        _stop(process)
        raise


def _kill(process) -> None:
    """SIGKILL *process*: the machine "loses power"."""
    process.send_signal(signal.SIGKILL)
    process.wait(timeout=30)
    assert process.returncode == -signal.SIGKILL


def _stop(process) -> None:
    if process.poll() is None:
        process.kill()
        process.wait(timeout=10)


def _results_digests(client) -> dict[str, str]:
    return {
        case: info["digest"]
        for case, info in client.results().items()
        if info["digest"] is not None
    }


@pytest.mark.parametrize("boot", BOOTS)
class TestKillNineRecover:
    def test_sigkill_midstream_then_recover_matches_batch(self, tmp_path, boot):
        trail = list(paper_audit_trail())
        cut = len(trail) // 2
        first, listening, _ = _spawn(tmp_path, boot)
        try:
            shipper = ResilientAuditClient(
                listening["host"], listening["port"], rng=random.Random(11)
            )
            outcome = shipper.ship(trail[:cut])
            assert outcome["accepted"] == cut
            # The stream is mid-flight and synced; now the machine
            # "loses power".
            _kill(first)
        finally:
            _stop(first)

        second, listening, recovered = _spawn(tmp_path, boot, resumes=True)
        try:
            # The daemon reported its reconstruction before listening:
            # every entry acknowledged `synced` before the kill.
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

            assert _results_digests(resumed) == interpreted_digests(
                process_registry(), paper_audit_trail(), role_hierarchy()
            )

            resumed.bye()
            second.send_signal(signal.SIGTERM)
            stdout, stderr = second.communicate(timeout=60)
            assert second.returncode == 0, stderr
            drained = json.loads(stdout.splitlines()[-1])["drained"]
            assert drained["store_intact"] is True
        finally:
            _stop(second)

        # The on-disk chain holds the whole trail exactly once.
        with AuditStore(str(tmp_path / "audit.db")) as store:
            assert len(store) == len(trail)
            store.verify_integrity()


def test_a_store_only_sync_is_durable(tmp_path):
    """Without a WAL, ``synced`` waits for the store's commit: the whole
    paper trail, synced, survives a kill -9 that comes right after."""
    trail = list(paper_audit_trail())
    first, listening, _ = _spawn(tmp_path, "store-only")
    try:
        with AuditStreamClient(listening["host"], listening["port"]) as client:
            client.send_trail(trail)
            assert client.sync()["received"] == len(trail)
            _kill(first)
    finally:
        _stop(first)

    second, listening, recovered = _spawn(tmp_path, "store-only", resumes=True)
    try:
        assert recovered["store_entries"] == len(trail)
        with AuditStreamClient(listening["host"], listening["port"]) as client:
            assert _results_digests(client) == interpreted_digests(
                process_registry(), trail, role_hierarchy()
            )
    finally:
        _stop(second)


def test_an_xes_event_with_an_empty_resource_is_refused_and_a_crash_resumes(
    tmp_path,
):
    """An ``xes`` event whose ``org:resource`` is empty is refused as an
    ``entry`` op without a user is, so the log never holds it and the
    start after a kill -9 resumes what was accepted."""
    trail = list(paper_audit_trail())
    document = export_xes(AuditTrail([*trail[:5], replace(trail[5], user="")]))
    imported = list(import_xes(document))
    refused = next(i for i, entry in enumerate(imported) if not entry.user)
    accepted = imported[:refused]
    first, listening, _ = _spawn(tmp_path, "grown")
    try:
        with AuditStreamClient(listening["host"], listening["port"]) as client:
            client.send_xes(document)
            error = client.recv_until("error")
            assert "missing required field(s): user" in error["detail"]
            assert client.sync()["received"] == len(accepted)
            assert client.status()["dead_letters"] == 1
            _kill(first)
    finally:
        _stop(first)

    second, listening, recovered = _spawn(tmp_path, "grown", resumes=True)
    try:
        assert recovered["replayed"] == len(accepted)
        with AuditStreamClient(listening["host"], listening["port"]) as client:
            assert _results_digests(client) == interpreted_digests(
                process_registry(), accepted, role_hierarchy()
            )
    finally:
        _stop(second)
