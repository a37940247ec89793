"""Quarantine triage against a live service.

The operator-facing loop: a case crashes its checker and lands in
quarantine; the control plane requeues it — the replay runs *on the
case's own shard thread*, serialized with live ingest that keeps
flowing the whole time — or dismisses it, leaving a durable,
hash-chained operator record next to the audit trail.
"""

import threading

import pytest

from repro.audit.store import AuditStore
from repro.control import ControlPlane
from repro.core.auditor import PurposeControlAuditor
from repro.obs import MemoryEventLog, MetricsRegistry, Telemetry
from repro.scenarios import (
    paper_audit_trail,
    process_registry,
    role_hierarchy,
)
from repro.serve import AuditStreamClient, ServeConfig
from repro.serve.core import RequeueResult
from repro.testing import (
    FaultInjector,
    FaultPlan,
    canonical_digest,
    reset_fault_counters,
)


@pytest.fixture(autouse=True)
def _fresh_fault_counters():
    reset_fault_counters()
    yield
    reset_fault_counters()


def _telemetry():
    log = MemoryEventLog()
    return Telemetry.create(registry=MetricsRegistry(), events=log.events), log


def _crashing_service(serve_factory, tmp_path, telemetry):
    """A service where the first treatment case's checker raises."""
    injector = FaultInjector(
        FaultPlan(raise_on_case=1, only_in_workers=False),
        purposes=("treatment",),
    )
    return serve_factory(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(
            shards=3, store_path=str(tmp_path / "audit.db")
        ),
        telemetry=telemetry,
        checker_wrapper=injector,
        control="mount",
    )


class TestRequeue:
    def test_requeue_races_live_ingest_and_recovers_the_case(
        self, serve_factory, tmp_path
    ):
        telemetry, log = _telemetry()
        handle = _crashing_service(serve_factory, tmp_path, telemetry)
        plane = ControlPlane(router=handle.router, telemetry=telemetry)
        trail = list(paper_audit_trail())
        victim = trail[0].case
        # The victim's own later entries wait until the requeue has
        # replayed: landing first, they would let the replay run the
        # case to completion, and the test would race its own stream.
        others = [entry for entry in trail[1:] if entry.case != victim]
        held_back = [entry for entry in trail[1:] if entry.case == victim]

        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            client.send_entry(trail[0])
            client.sync()
            assert (
                handle.router.quarantined_cases().get(victim) is not None
            )

            # Requeue while every other case pours in concurrently.
            pump_errors = []

            def pump():
                try:
                    with AuditStreamClient(
                        handle.host, handle.port
                    ) as second:
                        second.recv_until("hello")
                        second.send_trail(others)
                        second.sync()
                except Exception as error:  # pragma: no cover
                    pump_errors.append(error)

            pumper = threading.Thread(target=pump)
            pumper.start()
            status, payload, _ = plane.handle(
                "POST", f"/api/v1/quarantine/{victim}/requeue", {}, None
            )
            pumper.join(timeout=30)
            client.send_trail(held_back)
            client.sync()
            served = client.results()

        assert not pump_errors
        assert status == 200, payload
        assert payload["accepted"] is True
        # The injected fault fired once; the replay is clean, so the
        # case resumes as a live, compliant-so-far case.
        assert payload["state"] == "open"
        assert payload["replayed_entries"] == 1
        assert victim not in handle.router.quarantined_cases()
        assert served[victim]["state"] in ("open", "completed")
        # The resumed case then finishes exactly as a batch audit does.
        batch = PurposeControlAuditor(
            process_registry(), hierarchy=role_hierarchy()
        ).audit(paper_audit_trail())
        assert served[victim]["digest"] == canonical_digest(
            batch.cases[victim].replay
        )
        # Live ingest was never poisoned: the burst of violation cases
        # streamed during the requeue all carry verdicts.
        assert served["HT-10"]["state"] == "infringing"
        # The operator action is durably chained next to the trail.
        handle.drain()
        with AuditStore(str(tmp_path / "audit.db")) as store:
            actions = store.control_records(case=victim)
            assert [a["action"] for a in actions] == ["requeue"]
            store.verify_integrity()
        assert any(
            event["event"] == "control.requeue" for event in log.records()
        )
        assert (
            telemetry.registry.counter("serve_requeues_total").value(
                outcome="replayed"
            )
            == 1
        )

    def test_requeue_of_unquarantined_case_is_409(
        self, serve_factory, tmp_path
    ):
        telemetry, _ = _telemetry()
        handle = _crashing_service(serve_factory, tmp_path, telemetry)
        plane = ControlPlane(router=handle.router, telemetry=telemetry)
        status, payload, _ = plane.handle(
            "POST", "/api/v1/quarantine/HT-99/requeue", {}, None
        )
        assert status == 409
        assert payload["accepted"] is False

    def test_busy_shard_maps_to_503_with_retry_after(
        self, serve_factory, tmp_path, monkeypatch
    ):
        telemetry, _ = _telemetry()
        handle = _crashing_service(serve_factory, tmp_path, telemetry)
        plane = ControlPlane(router=handle.router, telemetry=telemetry)
        monkeypatch.setattr(
            handle.router,
            "requeue_case",
            lambda case, wait_s=5.0: RequeueResult(
                case=case, accepted=False, busy=True, retry_after_s=0.05
            ),
        )
        status, payload, headers = plane.handle(
            "POST", "/api/v1/quarantine/HT-1/requeue", {}, None
        )
        assert status == 503
        assert payload["retry_after_s"] == 0.05
        # The header carries the same hint the wire protocol's busy
        # response does, as a raw decimal.
        assert headers["Retry-After"] == "0.05"


class TestDismiss:
    def test_dismiss_removes_and_records(self, serve_factory, tmp_path):
        telemetry, log = _telemetry()
        handle = _crashing_service(serve_factory, tmp_path, telemetry)
        plane = ControlPlane(router=handle.router, telemetry=telemetry)
        trail = list(paper_audit_trail())
        victim = trail[0].case
        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            client.send_entry(trail[0])
            client.sync()
        assert victim in handle.router.quarantined_cases()

        status, payload, _ = plane.handle(
            "POST",
            f"/api/v1/quarantine/{victim}/dismiss",
            {},
            {"actor": "oncall", "reason": "injected fault, known"},
        )
        assert status == 200
        assert payload["dismissed"] is True
        assert payload["kind"] == "error"
        assert victim not in handle.router.quarantined_cases()
        # Dismissing again 404s — the triage queue does not resurrect.
        status, _, _ = plane.handle(
            "POST", f"/api/v1/quarantine/{victim}/dismiss", {}, None
        )
        assert status == 404

        handle.drain()
        with AuditStore(str(tmp_path / "audit.db")) as store:
            actions = store.control_records(case=victim)
            assert [a["action"] for a in actions] == ["dismiss"]
            assert actions[0]["actor"] == "oncall"
            store.verify_integrity()
        assert any(
            event["event"] == "control.dismiss" for event in log.records()
        )
        assert (
            telemetry.registry.counter("serve_dismissals_total").total == 1
        )
