"""Quarantine triage against a live service.

The operator-facing loop: a case crashes its checker and lands in
quarantine; the control plane requeues it — the replay runs *on the
case's own shard thread*, serialized with live ingest that keeps
flowing the whole time — or dismisses it, leaving a durable,
hash-chained operator record next to the audit trail.
"""

import threading
import time

import pytest

from repro.audit.store import AuditStore
from repro.control import ControlPlane
from repro.core.auditor import PurposeControlAuditor
from repro.obs import (
    CASE_QUARANTINED,
    MemoryEventLog,
    MetricsRegistry,
    Telemetry,
)
from repro.policy.registry import ProcessRegistry
from repro.scenarios import (
    paper_audit_trail,
    process_registry,
    role_hierarchy,
    sequential_process,
)
from repro.serve import (
    AuditStreamClient,
    ConsistentHashRing,
    ServeConfig,
    ShardRouter,
)
from repro.serve.core import RequeueResult
from repro.testing import (
    FaultInjector,
    FaultPlan,
    ShardKillInjector,
    canonical_digest,
    reset_fault_counters,
)
from tests.core.test_resilience import mixed_trail, non_well_founded_process


@pytest.fixture(autouse=True)
def _fresh_fault_counters():
    reset_fault_counters()
    yield
    reset_fault_counters()


def _telemetry():
    log = MemoryEventLog()
    return Telemetry.create(registry=MetricsRegistry(), events=log.events), log


def _mixed_router(tmp_path, telemetry=None, checker_wrapper=None, **config):
    """Two shards over a store and a WAL, serving a sequential ``OK``
    purpose and the non-well-founded ``NW`` purpose, whose case ``NW-1``
    is contained as undecidable."""
    registry = ProcessRegistry()
    registry.register(sequential_process(2), "OK")
    registry.register(non_well_founded_process(), "NW")
    router = ShardRouter(
        registry,
        config=ServeConfig(
            shards=2,
            store_path=str(tmp_path / "audit.db"),
            wal_dir=str(tmp_path / "wal"),
            **config,
        ),
        telemetry=telemetry,
        checker_wrapper=checker_wrapper,
    )
    router.start()
    return router


def _dismiss(router, case: str) -> None:
    status, _, _ = ControlPlane(router=router).handle(
        "POST", f"/api/v1/quarantine/{case}/dismiss", {}, None
    )
    assert status == 200


def _listed(router) -> list[str]:
    status, payload, _ = ControlPlane(router=router).handle(
        "GET", "/api/v1/quarantine", {}, None
    )
    assert status == 200
    return [record["case"] for record in payload["quarantined"]]


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

    def test_requeue_forgets_the_old_findings(self, serve_factory, tmp_path):
        telemetry, _ = _telemetry()
        handle = _crashing_service(serve_factory, tmp_path, telemetry)
        plane = ControlPlane(router=handle.router, telemetry=telemetry)
        victim = paper_audit_trail()[0]
        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            client.send_entry(victim)
            client.sync()
        _, before, _ = plane.handle(
            "GET", f"/api/v1/cases/{victim.case}", {}, None
        )
        assert [f["kind"] for f in before["findings"]] == ["audit-error"]

        status, _, _ = plane.handle(
            "POST", f"/api/v1/quarantine/{victim.case}/requeue", {}, None
        )
        assert status == 200
        _, after, _ = plane.handle(
            "GET", f"/api/v1/cases/{victim.case}", {}, None
        )
        # The injected fault fired once: the replay is clean, and the
        # case lists the findings of that replay only — none.
        assert after["state"] == "open"
        assert after["quarantined"] is False
        assert after["findings"] == []

    def test_requeued_undecidable_case_keeps_one_finding(self):
        registry = ProcessRegistry()
        registry.register(sequential_process(2), "OK")
        registry.register(non_well_founded_process(), "NW")
        router = ShardRouter(registry, config=ServeConfig(shards=2))
        router.start()
        try:
            for entry in mixed_trail():
                assert router.submit(entry).accepted
            assert router.wait_idle(timeout=30)
            plane = ControlPlane(router=router)
            for _ in range(3):
                status, payload, _ = plane.handle(
                    "POST", "/api/v1/quarantine/NW-1/requeue", {}, None
                )
                assert status == 200 and payload["state"] == "undecidable"
                status, payload, _ = plane.handle(
                    "GET", "/api/v1/cases/NW-1", {}, None
                )
                assert status == 200
                assert payload["quarantined"] is True
                assert [f["kind"] for f in payload["findings"]] == [
                    "undecidable"
                ]
        finally:
            router.drain()

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

    @pytest.mark.parametrize("wait_s", ["1e300", "inf", "nan", "-1", "abc"])
    def test_out_of_range_wait_is_refused_before_the_case_is_touched(
        self, serve_factory, tmp_path, wait_s
    ):
        telemetry, _ = _telemetry()
        handle = _crashing_service(serve_factory, tmp_path, telemetry)
        plane = ControlPlane(router=handle.router, telemetry=telemetry)
        victim = paper_audit_trail()[0]
        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            client.send_entry(victim)
            client.sync()
        assert victim.case in handle.router.quarantined_cases()
        status, payload, _ = plane.handle(
            "POST",
            f"/api/v1/quarantine/{victim.case}/requeue",
            {"wait_s": wait_s},
            None,
        )
        assert status == 400
        assert "wait_s" in payload["error"]
        assert victim.case in handle.router.quarantined_cases()
        with AuditStore(str(tmp_path / "audit.db")) as store:
            assert store.control_records() == []

    def test_a_wait_in_range_is_answered_and_recorded(
        self, serve_factory, tmp_path
    ):
        telemetry, _ = _telemetry()
        handle = _crashing_service(serve_factory, tmp_path, telemetry)
        plane = ControlPlane(router=handle.router, telemetry=telemetry)
        victim = paper_audit_trail()[0]
        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            client.send_entry(victim)
            client.sync()
        status, payload, _ = plane.handle(
            "POST",
            f"/api/v1/quarantine/{victim.case}/requeue",
            {"wait_s": "60"},
            None,
        )
        assert status == 200 and payload["state"] == "open"
        with AuditStore(str(tmp_path / "audit.db")) as store:
            actions = store.control_records(case=victim.case)
        assert [a["action"] for a in actions] == ["requeue"]

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

    def test_dismissal_survives_recover(self, tmp_path):
        first = _mixed_router(tmp_path)
        for entry in mixed_trail():
            assert first.submit(entry).accepted
        assert first.wait_idle(timeout=30)
        assert _listed(first) == ["NW-1"]
        _dismiss(first, "NW-1")
        first.drain()

        telemetry, log = _telemetry()
        second = _mixed_router(tmp_path, telemetry=telemetry)
        try:
            assert second.recovery_report.replayed > 0
            # The replay contains the case again, and files it nowhere.
            assert second.case_record("NW-1")["state"] == "undecidable"
            assert _listed(second) == []
            assert log.named(CASE_QUARANTINED) == []
            assert (
                telemetry.registry.counter(
                    "serve_quarantined_cases_total"
                ).total
                == 0
            )
        finally:
            second.drain()

    def test_dismissal_survives_a_supervised_restart(self, tmp_path):
        trail = list(mixed_trail())
        ring = ConsistentHashRing(["shard-0", "shard-1"])
        # Kill the shard that owns NW-1, on a case of its own.
        suspect = next(
            entry.case
            for entry in trail
            if entry.case != "NW-1"
            and ring.shard_for(entry.case) == ring.shard_for("NW-1")
        )
        telemetry, log = _telemetry()
        router = _mixed_router(
            tmp_path,
            telemetry=telemetry,
            checker_wrapper=ShardKillInjector(suspect),
            heartbeat_interval_s=0.05,
        )
        try:
            for entry in trail:
                if entry.case != suspect:
                    assert router.submit(entry).accepted
            assert router.wait_idle(timeout=30)
            _dismiss(router, "NW-1")
            killer = next(entry for entry in trail if entry.case == suspect)
            assert router.submit(killer).accepted
            deadline = time.monotonic() + 15
            while not router.statistics()["supervisor"]["restarts"]:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert router.wait_idle(timeout=30)
            # The replacement replayed NW-1 and contained it again; only
            # the poison suspect is filed.
            assert router.case_record("NW-1")["state"] == "undecidable"
            assert _listed(router) == [suspect]
            assert [
                event["case"] for event in log.named(CASE_QUARANTINED)
            ] == ["NW-1", suspect]
        finally:
            router.drain()
