"""Property-based tests for the COWS substrate: normalization laws,
semantics invariants and parser round-trips."""

from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.cows import congruence

from repro.cows import (
    Choice,
    CommLabel,
    Invoke,
    Kill,
    Nil,
    Parallel,
    Protect,
    Replicate,
    Request,
    Scope,
    enabled,
    endpoint,
    free_identifiers,
    killer,
    name,
    normalize,
    parse,
    substitute,
    var,
)

names = st.sampled_from([name(x) for x in ("P", "Q", "sys", "a", "b", "msg")])
operations = st.sampled_from([name(x) for x in ("T1", "T2", "go", "ok", "Err")])
killers = st.sampled_from([killer(x) for x in ("k", "j")])
variables = st.sampled_from([var(x) for x in ("x", "z")])
endpoints = st.builds(lambda p, o: endpoint(p, o), names, operations)
params = st.lists(st.one_of(names, variables), max_size=2).map(tuple)
ground_params = st.lists(names, max_size=2).map(tuple)


def terms(max_depth=4):
    base = st.one_of(
        st.just(Nil()),
        st.builds(Invoke, endpoints, params),
        st.builds(Kill, killers),
    )

    def extend(children):
        requests = st.builds(Request, endpoints, params, children)
        return st.one_of(
            requests,
            st.builds(lambda rs: Choice(tuple(rs)), st.lists(requests, min_size=1, max_size=3)),
            st.builds(lambda cs: Parallel(tuple(cs)), st.lists(children, min_size=1, max_size=3)),
            st.builds(Scope, st.one_of(names, variables, killers), children),
            st.builds(Protect, children),
            st.builds(Replicate, children),
        )

    return st.recursive(base, extend, max_leaves=12)


class TestNormalizationLaws:
    @given(terms())
    @settings(max_examples=200)
    def test_idempotent(self, term):
        once = normalize(term)
        assert normalize(once) == once

    @given(terms())
    @settings(max_examples=200)
    def test_preserves_free_identifiers(self, term):
        # GC only removes *unused* binders; free identifiers never change.
        assert free_identifiers(normalize(term)) == free_identifiers(term)

    @given(terms(), terms())
    @settings(max_examples=100)
    def test_parallel_commutative(self, left, right):
        assert normalize(Parallel((left, right))) == normalize(
            Parallel((right, left))
        )

    @given(terms(), terms(), terms())
    @settings(max_examples=100)
    def test_parallel_associative(self, a, b, c):
        left = Parallel((Parallel((a, b)), c))
        right = Parallel((a, Parallel((b, c))))
        assert normalize(left) == normalize(right)

    @given(terms())
    @settings(max_examples=100)
    def test_nil_is_parallel_identity(self, term):
        assert normalize(Parallel((term, Nil()))) == normalize(term)


class _NoMemo(dict):
    """A normal-form memo that never remembers anything."""

    def get(self, key, default=None):
        return default

    def setdefault(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


@contextmanager
def _uncached():
    """Run :func:`normalize` as a plain recursive function."""
    saved = congruence._NORMAL_CACHE
    congruence._NORMAL_CACHE = _NoMemo()
    try:
        yield
    finally:
        congruence._NORMAL_CACHE = saved


class TestNormalFormMemo:
    @given(terms())
    @settings(max_examples=200)
    def test_memoized_equals_uncached_reference(self, term):
        with _uncached():
            reference = normalize(term)
        memoized = normalize(term)
        assert memoized == reference
        assert str(memoized) == str(reference)
        assert normalize(term) is memoized

    @given(terms())
    @settings(max_examples=200)
    def test_canonical_forms_are_their_own_normal_form(self, term):
        canonical = normalize(term)
        assert normalize(canonical) is canonical

    @given(terms(), terms())
    @settings(max_examples=100)
    def test_equal_normal_forms_share_one_instance(self, left, right):
        assert normalize(Parallel((left, right))) is normalize(
            Parallel((right, left))
        )


class TestSemanticsInvariants:
    @given(terms())
    @settings(max_examples=150, deadline=None)
    def test_normalization_preserves_enabled_comm_labels(self, term):
        raw = {l for l, _ in enabled(term) if isinstance(l, CommLabel)}
        normal = {
            l for l, _ in enabled(normalize(term)) if isinstance(l, CommLabel)
        }
        assert raw == normal

    @given(terms())
    @settings(max_examples=150, deadline=None)
    def test_transition_targets_remain_terms(self, term):
        for _, target in enabled(term):
            normalize(target)  # must not raise

    @given(terms())
    @settings(max_examples=100, deadline=None)
    def test_kill_priority(self, term):
        from repro.cows import is_kill_label

        labels = [l for l, _ in enabled(term)]
        if any(is_kill_label(l) for l in labels):
            assert all(is_kill_label(l) for l in labels)


class TestSubstitutionLaws:
    @given(terms())
    @settings(max_examples=100)
    def test_substituting_absent_variable_is_identity(self, term):
        fresh = var("nowhere")
        assert substitute(term, {fresh: name("v")}) == term

    @given(terms())
    @settings(max_examples=100)
    def test_substitution_removes_free_variable(self, term):
        from repro.errors import SubstitutionError

        target = var("x")
        try:
            result = substitute(term, {target: name("a")})
        except SubstitutionError:
            # A private-name scope would capture the substituted value;
            # refusing (instead of silently mis-scoping) is the contract.
            return
        assert target not in free_identifiers(result) or _shadowed(term)


def _shadowed(term):
    """Whether term contains a Scope binding ?x (shadowing stops substitution)."""
    if isinstance(term, Scope):
        if term.binder == var("x"):
            return True
        return _shadowed(term.body)
    if isinstance(term, (Protect, Replicate)):
        return _shadowed(term.body)
    if isinstance(term, Parallel):
        return any(_shadowed(c) for c in term.components)
    if isinstance(term, Choice):
        return any(_shadowed(b) for b in term.branches)
    if isinstance(term, Request):
        return _shadowed(term.continuation)
    return False


class TestParserRoundTrip:
    @given(terms())
    @settings(max_examples=200)
    def test_str_parse_round_trip(self, term):
        # The textual syntax covers every construct the strategies build;
        # degenerate shapes (a one-component parallel) print like their
        # canonical form, so compare after normalization.
        canonical = normalize(term)
        assert parse(str(canonical)) == canonical
