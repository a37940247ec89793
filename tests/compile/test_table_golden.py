"""Pinned artifact bytes for every shipped purpose.

The COWS semantics is the reference every compiled table is built
from, and its speedups must be exact: the same transitions in the same
order, hence the same state numbering and the same RPTB bytes.  Two
builds of one checkout agreeing (``test_normal_form_memo``) says
nothing about a change to the semantics itself, so this test pins each
shipped purpose's ``.table.bin`` SHA-256 across code versions.  A
digest that moves means the compiler's output moved: if that is
intended (a new RPTB version, a new encoding), re-pin it together with
the change that explains why.
"""

import hashlib

import pytest

from repro.compile import load_table

from tests.compile.test_normal_form_memo import PROCESSES, _build

#: scenario -> purpose -> (states, SHA-256 of the ``.table.bin`` bytes)
GOLDEN = {
    "healthcare": {
        "clinicaltrial": (
            6,
            "00b263bec9d5cb93d5f1065825b87dfa0c3eaaf407635ec04d179062aafbcc4b",
        ),
        "treatment": (
            49,
            "f7ab939cb77646524619d940f42049c7cfa8d6fabd7e6ea089c9fdbd8fb37483",
        ),
    },
    "insurance": {
        "claimhandling": (
            9,
            "fa983148301e08695d9e96b09729140e328f861552d2d44a72de7bb0d3255179",
        ),
        "marketing": (
            5,
            "64b0745da7d60eeb6c08de66461622cd5148b17d9056d80978ee8d190184c5fd",
        ),
    },
    "appendix": {
        "fig7": (
            2,
            "d7e6c98a2629766a532275dc0796722f1af93493be2cb0b2451f5c4b04235d15",
        ),
        "fig8": (
            4,
            "38d4a06e4c0ddc2267df8d9f90f3d502008b8906ad907ebfcf63ae3f0aa1eaa1",
        ),
        "fig9": (
            5,
            "4676671bfb07370d26d1a6cf5bc91a660fc267013150a0eddbe3274e0280b3dd",
        ),
        "fig10": (
            3,
            "7d67d5b77376f43dcdb3d9cc823c636c6283fa8c55957994709886a8d5175d77",
        ),
    },
}


def test_every_shipped_scenario_is_pinned():
    assert GOLDEN.keys() == PROCESSES.keys()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_table_bytes_match_the_pinned_digests(name, tmp_path):
    built = _build(name, tmp_path, clear_memo=False)
    assert built.keys() == GOLDEN[name].keys()
    for purpose, (states, digest) in GOLDEN[name].items():
        (path,) = tmp_path.glob(f"{purpose}-*.table.bin")
        assert load_table(path).n_states == states, purpose
        assert hashlib.sha256(built[purpose]).hexdigest() == digest, purpose
