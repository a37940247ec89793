"""Differential suite: the streaming service vs. batch replay.

For every shipped scenario, drive the daemon over a real TCP socket —
entries arrive exactly as a log shipper would send them — and assert
that the canonical verdict digest the service reports for each case is
**byte-identical** to a batch :class:`PurposeControlAuditor` replay of
the same trail.  Both the interpreted and the compiled service paths
are exercised, across several shard counts, so neither sharding, the
wire protocol, nor automaton replay may perturb a verdict.
"""

import pytest

from repro.audit.generator import TrailGenerator
from repro.audit.model import AuditTrail
from repro.audit.xes import export_xes
from repro.core.auditor import PurposeControlAuditor
from repro.policy.registry import ProcessRegistry
from repro.scenarios import (
    fig7_process,
    fig8_process,
    fig9_process,
    fig10_process,
    hospital_day,
    insurance_audit_trail,
    insurance_registry,
    insurance_role_hierarchy,
    paper_audit_trail,
    process_registry,
    role_hierarchy,
)
from repro.serve import AuditStreamClient, ServeConfig
from repro.testing import canonical_digest

SHARD_COUNTS = (1, 3, 5)


def _appendix_scenario():
    """The appendix figures as a registry plus generated trails."""
    registry = ProcessRegistry()
    figures = [
        ("FIG7", fig7_process()),
        ("FIG8", fig8_process()),
        ("FIG9", fig9_process()),
        ("FIG10", fig10_process()),
    ]
    entries = []
    for prefix, process in figures:
        registry.register(process, prefix)
        encoded = registry.encoded_for(registry.purpose_of_case(f"{prefix}-0"))
        users = {role: [(f"u-{role}", role)] for role in encoded.roles}
        generator = TrailGenerator(encoded, users_by_role=users, seed=7)
        for index in range(1, 4):
            generated = generator.generate_case(
                f"{prefix}-{index}", f"Subject{index}", min_steps=1
            )
            entries.extend(generated.trail)
    entries.sort(key=lambda entry: entry.timestamp)
    return registry, None, AuditTrail(entries)


def _violation_mix_scenario():
    workload = hospital_day(
        n_cases=12,
        violation_rate=0.5,
        seed=42,
        violation_mix={
            "mimicry": 1.0,
            "wrong-role": 1.0,
            "skip": 1.0,
            "reorder": 1.0,
        },
    )
    return process_registry(), role_hierarchy(), workload.trail


SCENARIOS = {
    "healthcare": lambda: (
        process_registry(), role_hierarchy(), paper_audit_trail()
    ),
    "insurance": lambda: (
        insurance_registry(), insurance_role_hierarchy(),
        insurance_audit_trail(),
    ),
    "appendix-figures": _appendix_scenario,
    "violation-mix": _violation_mix_scenario,
}


@pytest.fixture(scope="module")
def batch_digests():
    """Per-scenario ground truth: interpreted batch replay digests."""
    cache: dict[str, dict[str, str]] = {}

    def digests_for(name: str) -> dict[str, str]:
        if name not in cache:
            registry, hierarchy, trail = SCENARIOS[name]()
            report = PurposeControlAuditor(
                registry, hierarchy=hierarchy
            ).audit(trail)
            cache[name] = {
                case: canonical_digest(result.replay)
                for case, result in report.cases.items()
                if result.replay is not None
            }
        return cache[name]

    return digests_for


#: The replay ladder as served configurations: ``compiled`` picks the
#: dense-table path, which falls back to interpreted replay per case.
TIERS = {
    "interpreted": dict(compiled=False),
    "table": dict(compiled=True),
}


def _stream_and_collect(serve_factory, name, shards, tier, tmp_path):
    registry, hierarchy, trail = SCENARIOS[name]()
    options = TIERS[tier]
    config = ServeConfig(
        shards=shards,
        automaton_dir=(
            str(tmp_path / "automata") if options["compiled"] else None
        ),
        **options,
    )
    handle = serve_factory(registry, hierarchy=hierarchy, config=config)
    with AuditStreamClient(handle.host, handle.port) as client:
        client.recv_until("hello")
        sent = client.send_trail(trail)
        assert client.sync()["received"] == sent
        return client.results()


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
class TestServiceTierMatrix:
    """tier x shard-count x scenario: every rung of the replay ladder,
    behind real sockets and real sharding, byte-identical to the batch
    auditor's interpreted ground truth."""

    def test_verdict_digests_match_batch_replay(
        self, serve_factory, batch_digests, scenario, shards, tier, tmp_path
    ):
        served = _stream_and_collect(
            serve_factory, scenario, shards, tier, tmp_path
        )
        expected = batch_digests(scenario)
        assert set(served) >= set(expected)
        for case, digest in expected.items():
            assert served[case]["digest"] == digest, (
                f"{scenario}: case {case} diverged from batch replay "
                f"({shards} shards, {tier})"
            )


class TestXesIngestion:
    def test_xes_fragment_matches_batch_replay(
        self, serve_factory, batch_digests
    ):
        registry, hierarchy, trail = SCENARIOS["healthcare"]()
        handle = serve_factory(
            registry, hierarchy=hierarchy, config=ServeConfig(shards=3)
        )
        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            client.send_xes(export_xes(trail))
            client.sync()
            served = client.results()
        for case, digest in batch_digests("healthcare").items():
            assert served[case]["digest"] == digest, case

    def test_final_states_survive_drain(self, serve_factory):
        registry, hierarchy, trail = SCENARIOS["healthcare"]()
        handle = serve_factory(
            registry, hierarchy=hierarchy, config=ServeConfig(shards=2)
        )
        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            client.send_trail(trail)
            client.sync()
        report = handle.drain()
        assert report.entries_received == len(trail)
        assert report.final_states["HT-1"] == "completed"
        assert report.final_states["HT-10"] == "infringing"


class TestAutomatonDirImpliesTableTier:
    """The CLI passes ``automaton_dir`` without setting ``compiled`` —
    that alone must serve from the dense table (``repro serve
    --automaton-dir`` once silently served from a slower tier)."""

    def test_table_tier_engages_from_automaton_dir_alone(self, tmp_path):
        from repro.obs import MetricsRegistry, Telemetry
        from repro.serve import ShardRouter

        registry, hierarchy, trail = SCENARIOS["healthcare"]()
        metrics = MetricsRegistry()
        router = ShardRouter(
            registry,
            hierarchy=hierarchy,
            config=ServeConfig(
                shards=2, automaton_dir=str(tmp_path / "automata")
            ),
            telemetry=Telemetry.create(registry=metrics),
        )
        router.start()
        try:
            for entry in trail:
                assert router.submit(entry, block=True).accepted
            assert router.wait_idle(timeout=30)
            served = {
                case: info["digest"]
                for case, info in router.results().items()
                if info["digest"] is not None
            }
        finally:
            router.drain()
        report = PurposeControlAuditor(registry, hierarchy=hierarchy).audit(
            trail
        )
        expected = {
            case: canonical_digest(result.replay)
            for case, result in report.cases.items()
            if result.replay is not None
        }
        assert served == expected
        assert metrics.counter("automaton_table_hits_total").total > 0
        assert list((tmp_path / "automata").glob("*.table.bin"))
