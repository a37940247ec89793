"""Property: streaming is equivalent to per-case sequential replay.

Hypothesis generates arbitrary interleavings of multi-case entry
streams and drives them through the service's
:class:`~repro.serve.core.ShardRouter` — the real admission, engine and
quarantine plumbing, minus the socket.  Whatever the interleaving,
every case must end in exactly the state (and with exactly the
canonical digest) that a sequential per-case replay of its own entries
produces, and the results list the cases in first-seen order.

Assertion messages name the offending case id, so a shrunk
counterexample points straight at the diverging case.
"""

from hypothesis import given, settings, strategies as st

from repro.core.monitor import OnlineMonitor
from repro.scenarios import hospital_day, process_registry, role_hierarchy
from repro.serve import ServeConfig, ShardRouter
from repro.testing import canonical_digest

# One fixed pool of per-case streams; examples draw subsets and
# interleavings from it (regenerating workloads per example would
# drown the property in setup time).
_WORKLOAD = hospital_day(
    n_cases=8,
    violation_rate=0.5,
    seed=1234,
    violation_mix={
        "mimicry": 1.0, "wrong-role": 1.0, "skip": 1.0, "reorder": 1.0,
    },
)
_CASES = sorted(_WORKLOAD.ground_truth)
_PER_CASE = {
    case: list(_WORKLOAD.trail.for_case(case)) for case in _CASES
}


@st.composite
def interleaved_streams(draw):
    """A subset of cases and an interleaving of their entries."""
    chosen = draw(
        st.lists(
            st.sampled_from(_CASES), min_size=1, max_size=6, unique=True
        )
    )
    remaining = {case: list(_PER_CASE[case]) for case in chosen}
    order = []
    for case in chosen:
        order.extend([case] * len(remaining[case]))
    order = draw(st.permutations(order))
    stream = [remaining[case].pop(0) for case in order]
    return chosen, stream


class TestStreamEquivalence:
    @given(interleaved_streams())
    @settings(max_examples=30, deadline=None)
    def test_sharded_stream_matches_sequential_replay(self, example):
        chosen, stream = example
        registry = process_registry()
        hierarchy = role_hierarchy()

        router = ShardRouter(
            registry,
            hierarchy=hierarchy,
            config=ServeConfig(),
        )
        router.start()
        try:
            for entry in stream:
                assert router.submit(entry).accepted
            streamed = router.results()
        finally:
            router.drain()
        assert list(streamed) == list(dict.fromkeys(e.case for e in stream))

        for case in chosen:
            reference = OnlineMonitor(registry, hierarchy=hierarchy)
            for entry in _PER_CASE[case]:
                reference.observe(entry)
            want_state = str(reference.case_state(case))
            got = streamed[case]
            assert got["state"] == want_state, (
                f"case {case} diverged: the stream ended {got['state']},"
                f" sequential replay ended {want_state}"
                f" ({len(stream)} entries interleaved)"
            )
            want_result = reference.case_result(case)
            want_digest = (
                canonical_digest(want_result)
                if want_result is not None
                else None
            )
            assert got["digest"] == want_digest, (
                f"case {case} diverged: streamed digest != sequential digest"
            )
