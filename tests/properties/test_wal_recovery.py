"""Property: crash/recover cycles never fork the record or the verdicts.

Hypothesis draws arbitrary interleavings of multi-case streams, splits
them at arbitrary crash points, and randomizes whether the store flush
committed before each "power loss".  However the stream is cut up:

* the **verdicts** after the final recovery are byte-identical (per-case
  canonical digest) to a sequential per-case replay of the same
  entries — the WAL + store union misses nothing and replays nothing
  twice;
* the **hash chain never forks** — the final store holds each accepted
  entry exactly once and passes its integrity check;
* **repeated partial recovery is idempotent** — recovering, crashing
  without ever resetting the WAL, and recovering again converges on the
  same state.

Every router here is started on the files the previous leg left, and
``start()`` is the whole recovery.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.audit.store import AuditStore
from repro.core.monitor import OnlineMonitor
from repro.scenarios import hospital_day, process_registry, role_hierarchy
from repro.serve import ServeConfig, ShardRouter
from repro.testing import canonical_digest

_WORKLOAD = hospital_day(
    n_cases=6,
    violation_rate=0.5,
    seed=4321,
    violation_mix={
        "mimicry": 1.0, "wrong-role": 1.0, "skip": 1.0, "reorder": 1.0,
    },
)
_CASES = sorted(_WORKLOAD.ground_truth)
_PER_CASE = {case: list(_WORKLOAD.trail.for_case(case)) for case in _CASES}


@st.composite
def crashy_runs(draw):
    """An interleaved stream, crash positions, and per-leg flush choices."""
    chosen = draw(
        st.lists(
            st.sampled_from(_CASES), min_size=1, max_size=4, unique=True
        )
    )
    remaining = {case: list(_PER_CASE[case]) for case in chosen}
    order = []
    for case in chosen:
        order.extend([case] * len(remaining[case]))
    order = draw(st.permutations(order))
    stream = [remaining[case].pop(0) for case in order]
    crashes = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(stream)),
            min_size=1,
            max_size=3,
        ).map(sorted)
    )
    flushed = draw(
        st.lists(
            st.booleans(),
            min_size=len(crashes) + 1,
            max_size=len(crashes) + 1,
        )
    )
    shards = draw(st.integers(min_value=1, max_value=4))
    return stream, crashes, flushed, shards


def _sequential_digests(stream):
    registry, hierarchy = process_registry(), role_hierarchy()
    cases = {entry.case for entry in stream}
    out = {}
    for case in cases:
        reference = OnlineMonitor(registry, hierarchy=hierarchy)
        for entry in stream:
            if entry.case == case:
                reference.observe(entry)
        result = reference.case_result(case)
        out[case] = canonical_digest(result) if result is not None else None
    return out


def _router(root: Path, shards: int) -> ShardRouter:
    router = ShardRouter(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(
            shards=shards,
            store_path=str(root / "audit.db"),
            wal_dir=str(root / "wal"),
            flush_max_batch=10_000,
        ),
    )
    router.start()
    return router


def _crash(router: ShardRouter) -> None:
    """Abandon without drain: what the process leaves after kill -9."""
    for wal in router._wals.values():
        wal.commit()
        wal.close()
    router._accepting = False


class TestCrashRecoveryProperties:
    @given(crashy_runs())
    @settings(max_examples=15, deadline=None)
    def test_verdicts_and_chain_survive_any_crash_schedule(self, example):
        stream, crashes, flushed, shards = example
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            position = 0
            legs = [*crashes, len(stream)]
            for leg, cut in enumerate(legs):
                router = _router(root, shards)
                for entry in stream[position:cut]:
                    assert router.submit(entry).accepted
                assert router.wait_idle(timeout=60)
                if flushed[leg]:
                    router.flush()
                    assert router._writer_sync(timeout=60)
                position = cut
                if leg < len(legs) - 1:
                    _crash(router)

            # The final leg survives; its state must match a sequential
            # per-case replay exactly.
            final = router
            got = {
                case: info["digest"]
                for case, info in final.results().items()
            }
            assert got == _sequential_digests(stream), (
                f"verdicts diverged after crashes at {crashes} "
                f"(flushes {flushed}, {shards} shard(s))"
            )
            drained = final.drain()
            assert drained.store_intact is True
            # The chain never forked: every entry exactly once, one
            # unbroken hash chain.
            with AuditStore(str(root / "audit.db")) as store:
                assert len(store) == len(stream), (
                    f"store holds {len(store)} entries for a "
                    f"{len(stream)}-entry stream: the crash schedule "
                    f"{crashes} lost or double-counted"
                )
                store.verify_integrity()

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_repeated_recovery_without_progress_is_idempotent(
        self, shards, rounds
    ):
        """Recover → crash → recover, k times, with no new traffic:
        every round reconstructs the same state and the same chain."""
        stream = [
            entry
            for case in _CASES[:3]
            for entry in _PER_CASE[case]
        ]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            router = _router(root, shards)
            for entry in stream:
                assert router.submit(entry).accepted
            assert router.wait_idle(timeout=60)
            _crash(router)

            seen = []
            for _ in range(rounds):
                router = _router(root, shards)
                seen.append(
                    {
                        case: info["digest"]
                        for case, info in router.results().items()
                    }
                )
                _crash(router)
            assert all(snapshot == seen[0] for snapshot in seen)

            final = _router(root, shards)
            final.drain()
            with AuditStore(str(root / "audit.db")) as store:
                assert len(store) == len(stream)
                store.verify_integrity()
