"""Differential test of the COWS parallel rule against a reference copy.

``_parallel_transitions`` tries only component pairs that share an
endpoint and builds interleaving successors from the flattened
bystanders, and term nodes cache their text.  All three are exact
rewrites: the reference below is the straightforward rule (every
ordered pair, every successor rebuilt through ``parallel(*rest)``),
kept verbatim.  Over the states random well-founded processes reach,
and over open terms that crowd a few endpoints, the two must agree on

* the transition **sequence** — order included, since the compiler
  numbers states in the order transitions are emitted;
* the text of every state, against a render that caches nothing;
* the bytes of the compiled table.
"""

from contextlib import contextmanager
from typing import Iterable

from hypothesis import given, settings, strategies as st

from repro.bpmn import encode
from repro.compile import compile_automaton, encode_table
from repro.core import ComplianceChecker
from repro.cows import endpoint, killer, name, normalize, semantics, var
from repro.cows.labels import (
    CommLabel,
    InvokeLabel,
    KillSignal,
    RequestLabel,
    match,
)
from repro.cows.semantics import Transition, enabled, halt, transitions
from repro.cows.terms import (
    Choice,
    Invoke,
    Kill,
    Nil,
    Parallel,
    Protect,
    Replicate,
    Request,
    Scope,
    TaskMarker,
    Term,
    parallel,
    substitute,
)

from tests.properties.test_algorithm_correctness import (
    block_spec_lists,
    build_random_process,
)
from tests.properties.test_cows_properties import terms

# Two endpoints only: invokes, requests and whole components crowd onto
# the same endpoint, so an invoker meets several requesters, and one
# component may both invoke and request an endpoint.
_endpoints = st.sampled_from([endpoint("p", "a"), endpoint("p", "b")])
_values = st.lists(st.sampled_from([name("m"), name("n")]), max_size=1)
_patterns = st.lists(st.sampled_from([name("m"), var("x")]), max_size=1)


def crowded_compositions():
    """Parallel compositions whose components share endpoints."""
    base = st.one_of(
        st.builds(Invoke, _endpoints, _values.map(tuple)),
        st.builds(Request, _endpoints, _patterns.map(tuple), st.just(Nil())),
        st.builds(Kill, st.just(killer("k"))),
        st.just(Nil()),
    )

    def extend(children):
        return st.one_of(
            st.builds(Request, _endpoints, _patterns.map(tuple), children),
            st.builds(
                lambda cs: Parallel(tuple(cs)),
                st.lists(children, min_size=1, max_size=3),
            ),
            st.builds(
                Scope, st.sampled_from([var("x"), killer("k")]), children
            ),
            st.builds(Protect, children),
            st.builds(Replicate, children),
        )

    components = st.recursive(base, extend, max_leaves=6)
    return st.lists(components, min_size=2, max_size=5).map(
        lambda cs: Parallel(tuple(cs))
    )


def _reference_parallel_transitions(term: Parallel) -> tuple[Transition, ...]:
    components = term.components
    per_component: list[tuple[Transition, ...]] = [
        transitions(component) for component in components
    ]
    result: list[Transition] = []

    # Interleaving: one component moves, the others stand still — unless
    # the label is an ongoing kill signal, which halts the bystanders.
    for index, component_transitions in enumerate(per_component):
        for label, target in component_transitions:
            if isinstance(label, KillSignal):
                rest = [
                    halt(other) if j != index else target
                    for j, other in enumerate(components)
                ]
                rest[index] = target
                result.append((label, parallel(*rest)))
            else:
                rest = list(components)
                rest[index] = target
                result.append((label, parallel(*rest)))

    # Synchronization: an invoke of one component meets a matching request
    # of another.
    for i, transitions_i in enumerate(per_component):
        for j, transitions_j in enumerate(per_component):
            if i == j:
                continue
            for comm in _reference_communications(
                transitions_i, transitions_j, components, i, j
            ):
                result.append(comm)
    return tuple(result)


def _reference_communications(
    invoker_transitions: Iterable[Transition],
    requester_transitions: Iterable[Transition],
    components: tuple[Term, ...],
    invoker_index: int,
    requester_index: int,
) -> list[Transition]:
    result: list[Transition] = []
    for invoke_label, invoke_target in invoker_transitions:
        if not isinstance(invoke_label, InvokeLabel):
            continue
        for request_label, request_target in requester_transitions:
            if not isinstance(request_label, RequestLabel):
                continue
            if request_label.endpoint != invoke_label.endpoint:
                continue
            bindings = match(request_label.params, invoke_label.values)
            if bindings is None:
                continue
            rest = list(components)
            rest[invoker_index] = invoke_target
            rest[requester_index] = substitute(request_target, bindings)
            label = CommLabel(invoke_label.endpoint, invoke_label.values)
            result.append((label, parallel(*rest)))
    return result


@contextmanager
def _reference_semantics():
    """Run :func:`transitions` on the reference parallel rule, nested
    compositions included (``transitions`` dispatches through the
    module global)."""
    saved = semantics._parallel_transitions
    semantics._parallel_transitions = _reference_parallel_transitions
    try:
        yield
    finally:
        semantics._parallel_transitions = saved


def _render(term: Term) -> str:
    """A term's text, rendered node by node with no cache in the way."""
    if isinstance(term, Nil):
        return "0"
    if isinstance(term, Invoke):
        return f"{term.endpoint}!<{_args(term.params)}>"
    if isinstance(term, Request):
        head = f"{term.endpoint}?<{_args(term.params)}>"
        if isinstance(term.continuation, Nil):
            return head
        body = _render(term.continuation)
        if isinstance(term.continuation, (Choice, Parallel)):
            return f"{head}.({body})"
        return f"{head}.{body}"
    if isinstance(term, Choice):
        return " + ".join(f"({_render(b)})" for b in term.branches)
    if isinstance(term, Parallel):
        return " | ".join(f"({_render(c)})" for c in term.components)
    if isinstance(term, Scope):
        return f"[{term.binder}]({_render(term.body)})"
    if isinstance(term, Protect):
        return f"{{|{_render(term.body)}|}}"
    if isinstance(term, Kill):
        return f"kill({term.label.value})"
    if isinstance(term, Replicate):
        return f"*({_render(term.body)})"
    if isinstance(term, TaskMarker):
        return f"<{term.role}.{term.task}>({_render(term.body)})"
    raise TypeError(f"not a COWS term: {type(term).__name__}")


def _args(params) -> str:
    return ", ".join(str(p) for p in params)


def _reached(initial: Term, limit: int = 300) -> list[Term]:
    """States reachable from *initial* (canonical and raw successors
    alike: a raw target keeps nested compositions and ``0`` components)."""
    start = normalize(initial)
    seen = {start}
    frontier = [start]
    reached = [start]
    while frontier and len(reached) < limit:
        state = frontier.pop()
        for _, target in enabled(state):
            reached.append(target)
            canonical = normalize(target)
            if canonical not in seen:
                seen.add(canonical)
                frontier.append(canonical)
                reached.append(canonical)
    return reached


def _assert_agrees(term: Term) -> None:
    fast = transitions(term)
    with _reference_semantics():
        reference = transitions(term)
    assert fast == reference
    assert str(term) == _render(term)
    assert str(term) == _render(term)  # the cached text, second time


class TestParallelRuleAgreesWithReference:
    @given(block_spec_lists)
    @settings(max_examples=30, deadline=None)
    def test_same_transition_sequence_and_text_on_reached_states(self, specs):
        for state in _reached(encode(build_random_process(specs)).term):
            _assert_agrees(state)

    @given(terms())
    @settings(max_examples=200, deadline=None)
    def test_same_transition_sequence_and_text_on_open_terms(self, term):
        _assert_agrees(term)
        for _, target in transitions(term):
            _assert_agrees(target)

    @given(crowded_compositions())
    @settings(max_examples=300, deadline=None)
    def test_same_transition_sequence_on_crowded_endpoints(self, term):
        _assert_agrees(term)
        for _, target in transitions(term):
            _assert_agrees(target)

    @given(block_spec_lists)
    @settings(max_examples=15, deadline=None)
    def test_same_table_bytes(self, specs):
        process = build_random_process(specs)
        fast = encode_table(compile_automaton(ComplianceChecker(encode(process))))
        with _reference_semantics():
            reference = encode_table(
                compile_automaton(ComplianceChecker(encode(process)))
            )
        assert fast == reference
