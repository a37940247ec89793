"""Declarative audit configs: parsing, validation, fingerprints.

The config is the deployment's auditable record of *what every case was
audited against*, so the properties under test are archival ones:
loading is strict (unknown keys, duplicates and broken references all
refuse loudly), fingerprints are content hashes (stable across
re-parses, moved files and inlining; sensitive to anything that can
change a verdict), and budgets never leak into tenant fingerprints.
"""

import json

import pytest

from repro.control import AuditConfig, load_config, parse_config
from repro.control.config import TenantSpec
from repro.errors import ConfigError
from repro.serve import ServeConfig

from tests.control.conftest import mutate_tenant_process, write_scenario_config


class TestParsing:
    def test_load_json_scenario_config(self, tmp_path):
        config = load_config(str(write_scenario_config(tmp_path, "healthcare")))
        assert config.version == "1"
        assert {t.purpose for t in config.tenants} == {
            "treatment",
            "clinicaltrial",
        }
        assert config.tenant("treatment").prefix == "HT"
        assert config.hierarchy is not None
        registry = config.registry()
        assert registry.purpose_of_case("HT-1") == "treatment"
        assert registry.purpose_of_case("CT-9") == "clinicaltrial"

    def test_load_toml_scenario_config(self, tmp_path):
        pytest.importorskip("tomllib")
        write_scenario_config(tmp_path, "healthcare")
        toml = tmp_path / "audit.toml"
        toml.write_text(
            'version = "1"\n'
            "\n"
            "[hierarchy]\n"
            'Cardiologist = ["Physician"]\n'
            "\n"
            "[budgets]\n"
            "flush_max_batch = 64\n"
            "\n"
            "[[tenants]]\n"
            'prefix = "HT"\n'
            'process = "ht.json"\n'
            "\n"
            "[[tenants]]\n"
            'prefix = "CT"\n'
            'process = "ct.json"\n'
        )
        config = load_config(str(toml))
        assert {t.purpose for t in config.tenants} == {
            "treatment",
            "clinicaltrial",
        }
        assert config.budgets == {"flush_max_batch": 64}
        assert config.serve_config().flush_max_batch == 64

    def test_single_tenant_object_is_promoted_to_a_list(self, tmp_path):
        write_scenario_config(tmp_path, "healthcare")
        config = parse_config(
            {"tenants": {"prefix": "HT", "process": "ht.json"}},
            base_dir=str(tmp_path),
        )
        assert len(config.tenants) == 1

    def test_inline_process_document(self, tmp_path):
        source = load_config(
            str(write_scenario_config(tmp_path, "healthcare"))
        )
        config = parse_config(source.to_document())
        assert {t.purpose for t in config.tenants} == {
            "treatment",
            "clinicaltrial",
        }

    @pytest.mark.parametrize(
        "document, fragment",
        [
            ([], "must be a JSON/TOML object"),
            ({"tenant": []}, "unknown config keys"),
            ({"tenants": []}, "non-empty list"),
            ({}, "'tenants' list"),
            ({"tenants": [{"prefix": "HT"}], "hierarchy": 3}, "hierarchy"),
            (
                {"tenants": [{"prefix": "HT"}], "budgets": {"turbo": 1}},
                "unknown budget keys",
            ),
            ({"tenants": [{"prefix": "HT"}]}, "'process' path"),
            ({"tenants": [{"process": "x.json"}]}, "cannot read process"),
        ],
    )
    def test_structural_errors(self, document, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(document)

    @pytest.mark.parametrize(
        "field",
        [
            "replicas",
            "wal_segment_max_bytes",
            "wal_fsync_batch",
            "automaton_max_states",
            "busy_watermark",
            "shed_watermark",
            "retry_after_s",
            "supervise",
            "queue_capacity",
            "heartbeat_interval_s",
            "hang_timeout_s",
            "max_shard_restarts",
            "shards",
        ],
    )
    def test_dropped_serve_fields_are_unknown_budget_keys(self, field):
        # The WAL and fresh automata keep their own defaults, the retry
        # hint is a constant, and every case is replayed on one engine
        # on the event loop, with no partition, queue, thread or
        # supervisor to tune; these are not ServeConfig fields.
        with pytest.raises(ConfigError, match="unknown budget keys"):
            parse_config(
                {"tenants": [{"prefix": "HT"}], "budgets": {field: 1}}
            )

    @pytest.mark.parametrize(
        "budget, value",
        [
            ("flush_max_batch", 0),
            ("flush_interval_s", 0),
            ("flush_interval_s", -1),
            ("case_timeout_s", -1),
        ],
    )
    def test_out_of_range_budgets_are_refused_at_load(self, budget, value):
        with pytest.raises(ConfigError, match=f"invalid budget: {budget} "):
            parse_config(
                {"tenants": [{"prefix": "HT"}], "budgets": {budget: value}}
            )

    def test_duplicate_purpose_and_prefix_refuse(self, tmp_path):
        write_scenario_config(tmp_path, "healthcare")
        base = {"prefix": "HT", "process": "ht.json"}
        with pytest.raises(ConfigError, match="duplicate tenant purpose"):
            parse_config(
                {"tenants": [base, {"prefix": "H2", "process": "ht.json"}]},
                base_dir=str(tmp_path),
            )
        with pytest.raises(ConfigError, match="duplicate case prefix"):
            parse_config(
                {"tenants": [base, {"prefix": "HT", "process": "ct.json"}]},
                base_dir=str(tmp_path),
            )

    def test_purpose_alias_must_match_the_process(self, tmp_path):
        write_scenario_config(tmp_path, "healthcare")
        with pytest.raises(ConfigError, match="does not match"):
            parse_config(
                {
                    "tenants": [
                        {
                            "purpose": "not-treatment",
                            "prefix": "HT",
                            "process": "ht.json",
                        }
                    ]
                },
                base_dir=str(tmp_path),
            )

    def test_bad_policy_text_refuses(self, tmp_path):
        write_scenario_config(tmp_path, "healthcare")
        with pytest.raises(ConfigError, match="bad policy"):
            parse_config(
                {
                    "tenants": [
                        {
                            "prefix": "HT",
                            "process": "ht.json",
                            "policy_text": ":::not a policy:::",
                        }
                    ]
                },
                base_dir=str(tmp_path),
            )

    def test_unreadable_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "missing.json"))
        broken = tmp_path / "broken.json"
        broken.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(broken))


class TestFingerprints:
    def test_reload_is_fingerprint_stable(self, tmp_path):
        path = str(write_scenario_config(tmp_path, "healthcare"))
        first, second = load_config(path), load_config(path)
        assert first.fingerprint() == second.fingerprint()
        assert first.tenant_fingerprints() == second.tenant_fingerprints()

    def test_round_trip_through_to_document(self, tmp_path):
        original = load_config(
            str(write_scenario_config(tmp_path, "healthcare"))
        )
        round_tripped = parse_config(original.to_document())
        # File-referenced and inlined forms are the same audit inputs.
        assert (
            round_tripped.tenant_fingerprints()
            == original.tenant_fingerprints()
        )
        assert round_tripped.fingerprint() == original.fingerprint()

    def test_process_change_moves_only_its_tenant(self, tmp_path):
        config_path = write_scenario_config(tmp_path, "healthcare")
        before = load_config(str(config_path)).tenant_fingerprints()
        mutate_tenant_process(config_path, "CT")
        after = load_config(str(config_path)).tenant_fingerprints()
        assert after["treatment"] == before["treatment"]
        assert after["clinicaltrial"] != before["clinicaltrial"]

    def test_budgets_do_not_move_tenant_fingerprints(self, tmp_path):
        plain = load_config(
            str(write_scenario_config(tmp_path, "healthcare"))
        )
        budgeted = load_config(
            str(
                write_scenario_config(
                    tmp_path, "healthcare", budgets={"flush_max_batch": 7}
                )
            )
        )
        # Budgets cannot change a verdict, so they must not force a
        # re-audit — but the whole-document fingerprint does move.
        assert (
            budgeted.tenant_fingerprints() == plain.tenant_fingerprints()
        )
        assert budgeted.fingerprint() != plain.fingerprint()

    def test_prefix_change_moves_the_tenant_fingerprint(self, tmp_path):
        config = load_config(
            str(write_scenario_config(tmp_path, "healthcare"))
        )
        respec = []
        for tenant in config.tenants:
            prefix = "HX" if tenant.prefix == "HT" else tenant.prefix
            respec.append(
                TenantSpec(
                    purpose=tenant.purpose,
                    prefix=prefix,
                    process=tenant.process,
                    policy_text=tenant.policy_text,
                )
            )
        moved = AuditConfig(
            version=config.version,
            tenants=tuple(respec),
            hierarchy=config.hierarchy,
        )
        assert (
            moved.tenant_fingerprints()["treatment"]
            != config.tenant_fingerprints()["treatment"]
        )


class TestServeConfigAndPreflight:
    def test_budgets_win_over_flag_defaults(self, tmp_path):
        config = load_config(
            str(
                write_scenario_config(
                    tmp_path,
                    "healthcare",
                    budgets={"flush_max_batch": 64, "case_timeout_s": 1.5},
                )
            )
        )
        serve = config.serve_config(flush_max_batch=500, flush_interval_s=2.0)
        assert isinstance(serve, ServeConfig)
        assert serve.flush_max_batch == 64  # document wins
        assert serve.case_timeout_s == 1.5
        assert serve.flush_interval_s == 2.0  # flag untouched by the doc

    def test_preflight_is_clean_for_shipped_scenarios(self, tmp_path):
        config = load_config(
            str(write_scenario_config(tmp_path, "healthcare"))
        )
        report = config.preflight()
        assert report.clean, [d.code for d in report.errors]
