"""The memoized COWS normal form under the compiler and the table tier.

:func:`repro.cows.congruence.normalize` memoizes term -> canonical form
for the life of the process, so what a build finds in the memo depends
on what ran before it.  Compiled artifacts must not: the RPTB
artifact bytes are the same whether every build starts from an empty
memo or a warm one.  And a warm table-tier service never normalizes at
all — its replay is array lookups, so serving a stream leaves the memo
exactly as start-up left it.
"""

import pytest

from repro.compile import compile_automaton, save_table, table_path
from repro.core import ComplianceChecker
from repro.cows import congruence
from repro.obs import MetricsRegistry, Telemetry
from repro.policy.registry import ProcessRegistry
from repro.scenarios import (
    fig7_process,
    fig8_process,
    fig9_process,
    fig10_process,
    hospital_day,
    insurance_registry,
    insurance_role_hierarchy,
    process_registry,
    role_hierarchy,
)
from repro.serve import ServeConfig, ShardRouter


def _appendix():
    registry = ProcessRegistry()
    for prefix, factory in (
        ("FIG7", fig7_process),
        ("FIG8", fig8_process),
        ("FIG9", fig9_process),
        ("FIG10", fig10_process),
    ):
        registry.register(factory(), prefix)
    return registry, None


#: name -> () -> (registry, hierarchy); a fresh registry per call, so
#: every build encodes its processes again.
PROCESSES = {
    "healthcare": lambda: (process_registry(), role_hierarchy()),
    "insurance": lambda: (insurance_registry(), insurance_role_hierarchy()),
    "appendix": _appendix,
}


def _build(name, directory, clear_memo):
    """Every purpose's artifact bytes."""
    registry, hierarchy = PROCESSES[name]()
    built = {}
    for purpose in sorted(registry.purposes()):
        if clear_memo:
            congruence._NORMAL_CACHE.clear()
        checker = ComplianceChecker(
            registry.encoded_for(purpose), hierarchy=hierarchy
        )
        automaton = compile_automaton(checker)
        path = save_table(
            automaton, table_path(directory, purpose, automaton.fingerprint)
        )
        built[purpose] = path.read_bytes()
    return built


@pytest.mark.parametrize("name", sorted(PROCESSES))
def test_artifacts_do_not_depend_on_the_memo(name, tmp_path):
    cold = _build(name, tmp_path / "cold", clear_memo=True)
    warm = _build(name, tmp_path / "warm", clear_memo=False)
    assert cold.keys() == warm.keys() and cold
    for purpose in cold:
        assert cold[purpose] == warm[purpose], purpose


def test_warm_table_tier_serving_never_grows_the_memo(tmp_path):
    metrics = MetricsRegistry()
    router = ShardRouter(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(shards=2, automaton_dir=str(tmp_path / "automata")),
        telemetry=Telemetry.create(registry=metrics),
    )
    trail = hospital_day(60, violation_rate=0.3, seed=5).trail
    router.start()
    try:
        warmed = len(congruence._NORMAL_CACHE)
        for entry in trail:
            assert router.submit(entry, block=True).accepted
        assert router.wait_idle(timeout=30)
        router.results()
        assert len(congruence._NORMAL_CACHE) == warmed
    finally:
        router.drain()
    assert metrics.counter("automaton_table_hits_total").total == len(trail)
