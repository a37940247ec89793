"""End-to-end drain test: the real ``repro serve`` process under SIGTERM.

Boots the daemon exactly as an operator would (``python -m repro.cli
serve``), streams the paper's trail over its TCP endpoint, then sends
SIGTERM and asserts the graceful-drain contract from ``docs/serving.md``:
the process reports what it drained, every entry reached the store in
one unbroken hash chain, and the exit code is 0.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.audit.store import AuditStore
from repro.scenarios import paper_audit_trail
from repro.serve import AuditStreamClient


@pytest.fixture
def daemon(tmp_path):
    """A live ``repro serve`` subprocess; yields (process, ports, store)."""
    store_path = str(tmp_path / "drain.db")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--scenario", "paper",
            "--store", store_path,
            "--flush-interval", "0.1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        line = process.stdout.readline()
        assert line, process.stderr.read()
        listening = json.loads(line)["listening"]
        yield process, listening, store_path
    finally:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=10)


class TestSigtermDrain:
    def test_sigterm_flushes_store_and_reports(self, daemon):
        process, listening, store_path = daemon
        trail = list(paper_audit_trail())

        with AuditStreamClient(listening["host"], listening["port"]) as client:
            client.recv_until("hello")
            client.send_trail(trail)
            synced = client.sync()
            assert synced["received"] == len(trail)

        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=30)
        assert process.returncode == 0, stderr

        drained = json.loads(stdout.splitlines()[-1])["drained"]
        assert drained["entries_received"] == len(trail)
        assert drained["entries_written"] == len(trail)
        assert drained["quarantined_cases"] == 0
        assert drained["store_intact"] is True

        # The on-disk record agrees: all rows present, hash chain whole.
        with AuditStore(store_path) as store:
            assert len(store) == len(trail)
            store.verify_integrity()

    def test_sigterm_with_a_client_connected(self, daemon):
        """The connected client reads its cases' ``final`` events and a
        ``bye``, and the daemon exits 0 within a bound."""
        process, listening, _ = daemon
        trail = list(paper_audit_trail())
        with AuditStreamClient(
            listening["host"], listening["port"], timeout=15
        ) as client:
            client.recv_until("hello")
            client.send_trail(trail)
            client.sync()
            process.send_signal(signal.SIGTERM)
            finals = []
            while (event := client.recv_event())["event"] != "bye":
                if event["event"] == "final":
                    finals.append(event["case"])
            assert event["reason"] == "drained"
            stdout, stderr = process.communicate(timeout=15)
        assert process.returncode == 0, stderr
        assert finals == sorted({entry.case for entry in trail})
        drained = json.loads(stdout.splitlines()[-1])["drained"]
        assert drained["entries_received"] == len(trail)
        assert drained["store_intact"] is True

    def test_healthz_and_metrics_respond_while_serving(self, daemon):
        import urllib.request

        process, listening, _ = daemon
        base = f"http://{listening['host']}:{listening['http_port']}"
        with urllib.request.urlopen(f"{base}/healthz", timeout=10) as response:
            health = json.loads(response.read())
        assert health["status"] == "ok"
        assert health["entries_received"] == 0
        assert health["draining"] is False
        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as response:
            metrics = response.read().decode()
        assert "serve_entries_total" in metrics
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
        assert process.returncode == 0
