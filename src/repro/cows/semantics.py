"""Structural operational semantics of COWS.

:func:`transitions` computes, for a COWS term, every labeled transition
``(l, s')`` the structural rules allow.  The rules implemented are the
minimal-COWS rules of Section 3.3 / Appendix A of the paper:

* an invoke ``p.o!<v>`` whose parameters are ground emits an invoke label;
* a request prefix emits a request label and continues with its body;
* a choice offers the transitions of its branches;
* parallel composition interleaves component transitions and synchronizes
  matching invoke/request pairs into communication labels;
* ``kill(k)`` emits the kill signal ``+k``; a kill signal propagating
  through a parallel composition *halts* the sibling components, except
  protected blocks ``{|s|}``; the scope delimiter ``[k]`` turns ``+k``
  into the executed-kill label ``+``;
* a name delimiter ``[n]`` blocks partial (invoke/request) labels that
  mention the private name, while completed communications pass through;
* a variable delimiter ``[x]`` lets a request pattern containing ``x``
  cross (scope opening); the matching communication then applies the
  substitution produced by :func:`repro.cows.labels.match` to the
  requester's residual;
* replication ``*s`` spawns a copy per transition of ``s`` (including
  synchronizations between two fresh copies).

Kill priority — COWS kill activities are eager — is enforced by
:func:`enabled`, which restricts the transition set to kill transitions
whenever one is possible.  The LTS layer always goes through
:func:`enabled`.

Deviations from full COWS (documented in DESIGN.md §3): substitutions are
applied eagerly at synchronization time instead of at the delimiter, and
the best-match communication rule is not implemented.  Both coincide with
full COWS on the terms the BPMN encoding produces.
"""

from __future__ import annotations

from typing import Iterable

from repro.cows.labels import (
    CommLabel,
    InvokeLabel,
    KillDone,
    KillSignal,
    Label,
    RequestLabel,
    is_kill_label,
    match,
)
from repro.cows.names import Endpoint, KillerLabel, Name, Variable
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

Transition = tuple[Label, Term]

_NIL = Nil()


def transitions(term: Term) -> tuple[Transition, ...]:
    """All transitions of *term*, without kill priority applied."""
    if isinstance(term, Nil):
        return ()
    if isinstance(term, Invoke):
        if not term.is_ground:
            return ()
        return ((InvokeLabel(term.endpoint, term.params), _NIL),)  # type: ignore[arg-type]
    if isinstance(term, Request):
        return ((RequestLabel(term.endpoint, term.params), term.continuation),)
    if isinstance(term, Choice):
        result: list[Transition] = []
        for branch in term.branches:
            result.extend(transitions(branch))
        return tuple(result)
    if isinstance(term, Kill):
        return ((KillSignal(term.label), _NIL),)
    if isinstance(term, Protect):
        return tuple(
            (label, Protect(target)) for label, target in transitions(term.body)
        )
    if isinstance(term, TaskMarker):
        # Transparent: the marker evaporates on the body's first activity.
        return transitions(term.body)
    if isinstance(term, Scope):
        return _scope_transitions(term)
    if isinstance(term, Parallel):
        return _parallel_transitions(term)
    if isinstance(term, Replicate):
        return _replicate_transitions(term)
    raise TypeError(f"not a COWS term: {type(term).__name__}")


def enabled(term: Term) -> tuple[Transition, ...]:
    """The transitions of *term* with COWS kill priority enforced.

    If any kill transition (``+k`` or ``+``) is enabled, only kill
    transitions are returned: kill activities execute eagerly, before any
    communication can take place.  This is what makes the exclusive
    gateway encoding (Fig. 8) behave exclusively.
    """
    all_transitions = transitions(term)
    kills = tuple(t for t in all_transitions if is_kill_label(t[0]))
    if kills:
        return kills
    return all_transitions


def halt(term: Term) -> Term:
    """The halt function of COWS: kill everything except protected blocks."""
    if isinstance(term, Protect):
        return term
    if isinstance(term, Parallel):
        return parallel(*(halt(component) for component in term.components))
    if isinstance(term, Scope):
        return Scope(term.binder, halt(term.body))
    if isinstance(term, TaskMarker):
        # The task is forcibly terminated: the marker dies with it, but
        # protected content inside the continuation survives.
        return halt(term.body)
    # Invoke, Request, Choice, Kill, Replicate, Nil: all killed.
    return _NIL


def _scope_transitions(term: Scope) -> tuple[Transition, ...]:
    binder = term.binder
    result: list[Transition] = []
    for label, target in transitions(term.body):
        if isinstance(binder, KillerLabel):
            if isinstance(label, KillSignal) and label.label == binder:
                result.append((KillDone(), Scope(binder, target)))
            else:
                result.append((label, Scope(binder, target)))
        elif isinstance(binder, Name):
            if _partial_label_mentions(label, binder):
                continue  # a private name cannot synchronize with the outside
            result.append((label, Scope(binder, target)))
        else:  # Variable binder
            if isinstance(label, RequestLabel) and binder in label.params:
                # Scope opening: the pattern escapes; the communication at
                # the enclosing parallel node will instantiate the binder
                # in the residual, so the delimiter is dropped here.
                result.append((label, target))
            else:
                result.append((label, Scope(binder, target)))
    return tuple(result)


def _partial_label_mentions(label: Label, name: Name) -> bool:
    """Whether an invoke/request label exposes the private name *name*."""
    if isinstance(label, InvokeLabel):
        return label.endpoint.mentions(name) or name in label.values
    if isinstance(label, RequestLabel):
        return label.endpoint.mentions(name) or name in label.params
    return False


def _parallel_transitions(term: Parallel) -> tuple[Transition, ...]:
    components = term.components
    per_component: list[tuple[Transition, ...]] = [
        transitions(component) for component in components
    ]
    result: list[Transition] = []

    # The components as parallel() flattens them; the bystanders of
    # component i are flat[:starts[i]] and flat[starts[i + 1]:].
    flat: list[Term] = []
    starts: list[int] = []
    for component in components:
        starts.append(len(flat))
        flat.extend(_flattened(component))
    starts.append(len(flat))
    flat_components = tuple(flat)

    # Interleaving: one component moves, the others stand still — unless
    # the label is an ongoing kill signal, which halts the bystanders.
    for index, component_transitions in enumerate(per_component):
        if not component_transitions:
            continue
        before = flat_components[: starts[index]]
        after = flat_components[starts[index + 1] :]
        for label, target in component_transitions:
            if isinstance(label, KillSignal):
                rest = [
                    halt(other) if j != index else target
                    for j, other in enumerate(components)
                ]
                result.append((label, parallel(*rest)))
            else:
                # Exactly parallel(*rest), without re-flattening the
                # components that did not move.
                moved = before + _flattened(target) + after
                if len(moved) > 1:
                    result.append((label, Parallel(moved)))
                else:
                    result.append((label, moved[0] if moved else _NIL))

    # Synchronization: an invoke of one component meets a matching request
    # of another.  Only a pair where j requests an endpoint that i invokes
    # can communicate, so only those pairs are tried, in the same (i, j)
    # order as trying them all: the emitted sequence is the same.
    requesters: dict[Endpoint, list[int]] = {}
    for j, transitions_j in enumerate(per_component):
        for label, _ in transitions_j:
            if isinstance(label, RequestLabel):
                requesters.setdefault(label.endpoint, []).append(j)
    for i, transitions_i in enumerate(per_component):
        partners: set[int] = set()
        for label, _ in transitions_i:
            if isinstance(label, InvokeLabel):
                partners.update(requesters.get(label.endpoint, ()))
        partners.discard(i)
        for j in sorted(partners):
            result.extend(
                _communications(
                    transitions_i, per_component[j], components, i, j
                )
            )
    return tuple(result)


def _flattened(term: Term) -> tuple[Term, ...]:
    """What :func:`~repro.cows.terms.parallel` makes of one component."""
    if isinstance(term, Parallel):
        return term.components
    if isinstance(term, Nil):
        return ()
    return (term,)


def _communications(
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


def _replicate_transitions(term: Replicate) -> tuple[Transition, ...]:
    body_transitions = transitions(term.body)
    result: list[Transition] = [
        (label, parallel(term, target)) for label, target in body_transitions
    ]
    # Two fresh copies may synchronize with each other in a single step.
    for invoke_label, invoke_target in body_transitions:
        if not isinstance(invoke_label, InvokeLabel):
            continue
        for request_label, request_target in body_transitions:
            if not isinstance(request_label, RequestLabel):
                continue
            if request_label.endpoint != invoke_label.endpoint:
                continue
            bindings = match(request_label.params, invoke_label.values)
            if bindings is None:
                continue
            label = CommLabel(invoke_label.endpoint, invoke_label.values)
            residual = parallel(
                term, invoke_target, substitute(request_target, bindings)
            )
            result.append((label, residual))
    return tuple(result)
