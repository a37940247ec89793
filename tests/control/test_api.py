"""The control API, standalone over a store file (no daemon).

Every endpoint the operator console uses, driven through
``ControlPlane.handle`` exactly as both transports do — route parsing,
filters, keyset pagination, drill-down, and the error contract
(unknown endpoints 404, bad parameters 400, live-only actions 409).
"""

import pytest

from repro.audit.store import AuditStore
from repro.control import ControlPlane, LocalControlClient, load_config
from repro.errors import ReproError
from repro.scenarios import paper_audit_trail
from repro.serve import ShardRouter


@pytest.fixture
def offline_plane(scenario_config):
    config_path, store_path = scenario_config("healthcare")
    plane = ControlPlane(
        config=load_config(str(config_path)), store_path=store_path
    )
    return plane, store_path


@pytest.fixture
def client(offline_plane):
    return LocalControlClient(offline_plane[0])


class TestRouting:
    def test_plane_needs_a_router_or_a_store(self):
        with pytest.raises(ReproError, match="live router or a store"):
            ControlPlane()

    @pytest.mark.parametrize(
        "method, path",
        [
            ("GET", "/api/v1/nope"),
            ("GET", "/api/v2/tenants"),
            ("GET", "/api"),
            ("POST", "/api/v1/tenants"),
            ("GET", "/api/v1/quarantine/HT-1/requeue"),
        ],
    )
    def test_unknown_endpoints_404(self, offline_plane, method, path):
        status, payload, _ = offline_plane[0].handle(method, path, {}, None)
        assert status == 404
        assert "error" in payload

    def test_head_is_a_reader(self, offline_plane):
        status, payload, _ = offline_plane[0].handle(
            "HEAD", "/api/v1/tenants", {}, None
        )
        assert status == 200 and payload["tenants"]


class TestVerdicts:
    def test_tenants_aggregate_per_purpose(self, client):
        status, payload = client.tenants()
        assert status == 200
        by_purpose = {t["purpose"]: t for t in payload["tenants"]}
        treatment = by_purpose["treatment"]
        assert treatment["prefix"] == "HT"
        assert treatment["cases"] == 7
        assert treatment["states"]["infringing"] == 5
        assert len(treatment["fingerprint"]) == 64
        assert by_purpose["clinicaltrial"]["states"] == {"completed": 1}

    def test_outcome_and_purpose_filters(self, client):
        status, payload = client.verdicts(outcome="infringing")
        assert status == 200
        assert {v["case"] for v in payload["verdicts"]} == {
            "HT-10", "HT-11", "HT-20", "HT-21", "HT-30",
        }
        status, payload = client.verdicts(purpose="clinicaltrial")
        assert [v["case"] for v in payload["verdicts"]] == ["CT-1"]

    def test_keyset_pagination_walks_every_case(self, client):
        seen, cursor = [], None
        for _ in range(10):
            status, payload = client.verdicts(limit=3, after_case=cursor)
            assert status == 200
            seen.extend(v["case"] for v in payload["verdicts"])
            cursor = payload.get("next_after_case")
            if cursor is None:
                break
        assert len(seen) == len(set(seen)) == 8
        assert seen == sorted(seen)

    def test_time_range_filter_uses_the_store(self, client):
        # The paper trail: HT-1 runs on 2010-03-12, the violation burst
        # on 2010-04-15.
        status, payload = client.verdicts(until="2010-03-13T00:00:00")
        assert status == 200
        assert {v["case"] for v in payload["verdicts"]} == {"HT-1", "HT-2"}
        status, payload = client.verdicts(since="2010-04-15T14:00:00")
        cases = {v["case"] for v in payload["verdicts"]}
        assert "HT-1" not in cases and "HT-2" not in cases
        assert {"CT-1", "HT-10"} <= cases

    def test_bad_limit_is_a_400(self, client):
        for bad in (0, -1, 100_000, "many"):
            status, payload = client.verdicts(limit=bad)
            assert status == 400, bad
            assert "error" in payload

    def test_standalone_without_config_refuses_verdicts(self, offline_plane):
        _, store_path = offline_plane
        bare = ControlPlane(store_path=store_path)
        status, payload, _ = bare.handle("GET", "/api/v1/verdicts", {}, None)
        assert status == 400
        assert "config" in payload["error"]


class TestDrillDown:
    def test_case_carries_findings_and_control_log(self, client):
        status, payload = client.case("HT-10")
        assert status == 200
        assert payload["state"] == "infringing"
        assert payload["purpose"] == "treatment"
        assert payload["quarantined"] is False
        assert payload["control_log"] == []
        assert payload["findings"], "an infringing case must explain itself"
        assert all(
            {"kind", "detail"} <= set(f) for f in payload["findings"]
        )

    def test_unknown_case_404s(self, client):
        status, payload = client.case("HT-999")
        assert status == 404

    def test_trail_pages_by_store_seq(self, offline_plane, client):
        _, store_path = offline_plane
        with AuditStore(store_path) as store:
            expected = len(store.query(case="HT-1"))
        status, first = client.trail("HT-1", limit=2)
        assert status == 200
        assert len(first["entries"]) == 2
        cursor = first["next_after_seq"]
        assert cursor == first["entries"][-1]["seq"]
        status, rest = client.trail("HT-1", after_seq=cursor, limit=1000)
        assert status == 200
        assert all(e["seq"] > cursor for e in rest["entries"])
        assert "next_after_seq" not in rest
        assert len(first["entries"]) + len(rest["entries"]) == expected
        assert all(e["case"] == "HT-1" for e in rest["entries"])


class TestTriageOffline:
    def test_requeue_needs_a_live_service(self, client):
        status, payload = client.requeue("HT-10")
        assert status == 409
        assert "live service" in payload["error"]

    def test_dismiss_of_unquarantined_case_404s(self, client):
        status, payload = client.dismiss("HT-10")
        assert status == 404

    def test_offline_dismiss_records_and_hides_the_case(
        self, scenario_config, monkeypatch
    ):
        config_path, store_path = scenario_config("healthcare")
        plane = ControlPlane(
            config=load_config(str(config_path)), store_path=store_path
        )
        client = LocalControlClient(plane)
        # Make HT-10 look quarantined in the replayed records: offline
        # quarantine is whatever the replay classifies as failed.
        records = plane._records()
        monkeypatch.setitem(records["HT-10"], "failure_kind", "error")
        status, payload = client.quarantine()
        assert status == 200
        assert [q["case"] for q in payload["quarantined"]] == ["HT-10"]

        status, payload = client.dismiss(
            "HT-10", actor="alice", reason="known tooling bug"
        )
        assert status == 200
        assert payload["dismissed"] is True and payload["recorded"] is True

        # Dismissed cases leave the quarantine listing...
        status, payload = client.quarantine()
        assert payload["count"] == 0
        # ...and the operator action is on the durable control log.
        with AuditStore(store_path) as store:
            actions = store.control_records(case="HT-10")
            assert [a["action"] for a in actions] == ["dismiss"]
            assert actions[0]["actor"] == "alice"
            assert actions[0]["reason"] == "known tooling bug"
            store.verify_integrity()  # raises on a broken chain
        status, payload = client.case("HT-10")
        assert [a["action"] for a in payload["control_log"]] == ["dismiss"]


class TestReauditEndpoint:
    def test_reaudit_full_then_incremental_via_ledger(
        self, tmp_path, offline_plane
    ):
        plane, _ = offline_plane
        client = LocalControlClient(plane)
        ledger = str(tmp_path / "ledger.json")
        status, payload = client.reaudit(ledger_out=ledger)
        assert status == 200
        assert payload["mode"] == "full"
        assert payload["replayed_cases"] == 8
        status, payload = client.reaudit(
            ledger=ledger, include_records=True
        )
        assert status == 200
        assert payload["mode"] == "incremental"
        assert payload["replayed_cases"] == 0
        assert payload["reused_cases"] == 8
        assert payload["records"]["CT-1"]["state"] == "completed"

    def test_full_flag_forces_a_cold_run(self, tmp_path, offline_plane):
        plane, _ = offline_plane
        client = LocalControlClient(plane)
        ledger = str(tmp_path / "ledger.json")
        client.reaudit(ledger_out=ledger)
        status, payload = client.reaudit(ledger=ledger, full=True)
        assert status == 200
        assert payload["mode"] == "full"
        assert payload["replayed_cases"] == 8

    def test_bad_baseline_ledger_is_a_400(self, tmp_path, offline_plane):
        plane, _ = offline_plane
        client = LocalControlClient(plane)
        status, payload = client.reaudit(
            ledger=str(tmp_path / "missing-ledger.json")
        )
        assert status == 400
        assert "ledger" in payload["error"]

    def test_config_info_reports_fingerprints(self, offline_plane):
        plane, _ = offline_plane
        status, payload = LocalControlClient(plane).config_info()
        assert status == 200
        assert payload["fingerprint"] == plane.config.fingerprint()
        assert set(payload["tenants"]) == {"treatment", "clinicaltrial"}

    def test_config_info_404s_without_a_config(self, offline_plane):
        _, store_path = offline_plane
        bare = ControlPlane(store_path=store_path)
        status, _, _ = bare.handle("GET", "/api/v1/config", {}, None)
        assert status == 404


class TestHangTimeoutBudget:
    """A config may carry ``hang_timeout_s`` for a daemon whose WAL
    comes from ``--wal-dir``.  Re-audits and offline verdict reads only
    replay the store, so the budget must not refuse them."""

    BUDGETS = {"hang_timeout_s": 5}

    def test_offline_verdicts_and_reaudit(self, scenario_config):
        config_path, store_path = scenario_config(
            "healthcare", budgets=self.BUDGETS
        )
        client = LocalControlClient(
            ControlPlane(
                config=load_config(str(config_path)), store_path=store_path
            )
        )
        status, payload = client.verdicts(outcome="infringing")
        assert status == 200
        assert payload["count"] == 5
        status, payload = client.reaudit()
        assert status == 200
        assert payload["replayed_cases"] == 8

    def test_live_reaudit_on_a_wal_daemon(self, tmp_path, scenario_config):
        config_path, _ = scenario_config("healthcare", budgets=self.BUDGETS)
        config = load_config(str(config_path))
        router = ShardRouter(
            config.registry(),
            hierarchy=config.hierarchy,
            config=config.serve_config(
                shards=2,
                store_path=str(tmp_path / "live.db"),
                wal_dir=str(tmp_path / "wal"),
            ),
        )
        router.start()
        try:
            for entry in paper_audit_trail():
                assert router.submit(entry).accepted
            assert router.wait_idle(timeout=30)
            status, payload = LocalControlClient(
                ControlPlane(router=router, config=config)
            ).reaudit(full=True)
        finally:
            router.drain()
        assert status == 200
        assert payload["replayed_cases"] == 8
