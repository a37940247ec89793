"""Differential suite: the streaming service vs. interpreted replay.

For every shipped scenario, drive the daemon over a real TCP socket —
entries arrive exactly as a log shipper would send them — and assert
that the canonical verdict digest the service reports for each case is
**byte-identical** to interpreted Algorithm 1 over the same trail (a
checker with no automaton attached).  Both boots are exercised — tables
grown from the stream, and tables compiled into an ``automaton_dir`` —
so neither the wire protocol nor table replay may perturb a verdict.
"""

import pytest

from repro.audit.generator import TrailGenerator
from repro.audit.model import AuditTrail
from repro.audit.xes import export_xes
from repro.obs import MetricsRegistry, Telemetry
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
from repro.serve import AuditStreamClient, ServeConfig, ShardRouter
from tests.oracle import interpreted_digests


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
    """Per-scenario ground truth: interpreted replay digests."""
    cache: dict[str, dict[str, str]] = {}

    def digests_for(name: str) -> dict[str, str]:
        if name not in cache:
            registry, hierarchy, trail = SCENARIOS[name]()
            cache[name] = interpreted_digests(registry, trail, hierarchy)
        return cache[name]

    return digests_for


#: The two boots: tables grown from the stream, or compiled into an
#: ``automaton_dir`` at start.
TIERS = ("grown", "compiled")


def _config(tier, tmp_path) -> ServeConfig:
    automata = str(tmp_path / "automata") if tier == "compiled" else None
    return ServeConfig(automaton_dir=automata)


def _stream_and_collect(serve_factory, name, tier, tmp_path):
    registry, hierarchy, trail = SCENARIOS[name]()
    config = _config(tier, tmp_path)
    handle = serve_factory(registry, hierarchy=hierarchy, config=config)
    with AuditStreamClient(handle.host, handle.port) as client:
        client.recv_until("hello")
        sent = client.send_trail(trail)
        assert client.sync()["received"] == sent
        return client.results()


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
class TestServiceTierMatrix:
    """boot x scenario, behind real sockets, byte-identical to
    interpreted ground truth."""

    def test_verdict_digests_match_batch_replay(
        self, serve_factory, batch_digests, scenario, tier, tmp_path
    ):
        served = _stream_and_collect(serve_factory, scenario, tier, tmp_path)
        expected = batch_digests(scenario)
        assert set(served) >= set(expected)
        for case, digest in expected.items():
            assert served[case]["digest"] == digest, (
                f"{scenario}: case {case} diverged from batch replay "
                f"({tier})"
            )


class TestXesIngestion:
    def test_xes_fragment_matches_batch_replay(
        self, serve_factory, batch_digests
    ):
        registry, hierarchy, trail = SCENARIOS["healthcare"]()
        handle = serve_factory(
            registry, hierarchy=hierarchy, config=ServeConfig()
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
            registry, hierarchy=hierarchy, config=ServeConfig()
        )
        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            client.send_trail(trail)
            client.sync()
        report = handle.drain()
        assert report.entries_received == len(trail)
        assert report.final_states["HT-1"] == "completed"
        assert report.final_states["HT-10"] == "infringing"


@pytest.mark.parametrize("tier", TIERS)
class TestEveryBootServesFromTheTable:
    """Both boots serve the paper trail from the dense table, with
    interpreted digests.  A router without an ``automaton_dir`` grows
    its tables in memory: its start reads and writes no artifact and
    makes no directory.  One with a directory compiles into it at start
    (``repro serve --automaton-dir`` once silently served from a slower
    tier)."""

    def test_the_paper_trail_replays_through_the_table(
        self, tmp_path, monkeypatch, tier
    ):
        import tempfile

        from repro.compile import AutomatonCache

        calls = []

        def recording(name, real):
            def record(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return record

        monkeypatch.setattr(
            tempfile, "mkdtemp", recording("mkdtemp", tempfile.mkdtemp)
        )
        for name in ("load", "save"):
            real = getattr(AutomatonCache, name)
            monkeypatch.setattr(AutomatonCache, name, recording(name, real))
        registry, hierarchy, trail = SCENARIOS["healthcare"]()
        metrics = MetricsRegistry()
        router = ShardRouter(
            registry,
            hierarchy=hierarchy,
            config=_config(tier, tmp_path),
            telemetry=Telemetry.create(registry=metrics),
        )
        router.start()
        try:
            for entry in trail:
                assert router.submit(entry).accepted
            served = {
                case: info["digest"]
                for case, info in router.results().items()
                if info["digest"] is not None
            }
        finally:
            router.drain()
        assert served == interpreted_digests(registry, trail, hierarchy)
        assert metrics.counter("automaton_table_hits_total").total > 0
        tables = list(tmp_path.rglob("*.table.bin"))
        purposes = len(registry.purposes())
        if tier == "grown":
            assert (calls, tables) == ([], [])
            assert metrics.counter("automaton_misses_total").total > 0
        else:
            assert sorted(calls) == ["load"] * purposes + ["save"] * purposes
            assert len(tables) == purposes
            assert metrics.counter("automaton_misses_total").total == 0
