"""Structural normalization of COWS terms.

The LTS machinery identifies states up to a *canonical form* that mirrors
the structural congruence of process calculi:

* parallel composition is flattened, ``0`` components are dropped, and
  components are sorted under a deterministic key (commutativity and
  associativity of ``|``);
* scope delimiters whose binder no longer occurs free in the body are
  garbage-collected;
* ``{|0|}``, ``*0`` and nested protections collapse;
* duplicate branches of a choice are removed and branches are sorted.

Normalizing after every transition keeps the explored state space small
(loops return to literally equal states) and makes state identity a plain
hash/equality check.  DESIGN.md lists this as design decision D3; the
ablation bench measures its effect.
"""

from __future__ import annotations

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
    free_identifiers,
)

_NIL = Nil()

_NORMAL_CACHE: dict[Term, Term] = {}


def normalize(term: Term) -> Term:
    """Return the canonical form of *term* (idempotent, memoized).

    Each canonical form is also recorded as its own normal form, so
    equal states come back as one shared instance: re-normalizing a
    state is a dictionary hit, and the LTS, WeakNext and compiled
    automata built on top compare and keep one object per state.
    """
    cached = _NORMAL_CACHE.get(term)
    if cached is not None:
        return cached
    normal = _normalize(term)
    normal = _NORMAL_CACHE.setdefault(normal, normal)
    _NORMAL_CACHE[term] = normal
    return normal


def _normalize(term: Term) -> Term:
    if isinstance(term, (Nil, Invoke, Kill)):
        return term
    if isinstance(term, Request):
        return Request(term.endpoint, term.params, normalize(term.continuation))
    if isinstance(term, Choice):
        branches = sorted(
            {normalize(b) for b in term.branches}, key=canonical_key
        )
        if not branches:
            return _NIL
        if len(branches) == 1:
            return branches[0]
        return Choice(tuple(branches))  # type: ignore[arg-type]
    if isinstance(term, Parallel):
        flat: list[Term] = []
        for component in term.components:
            normal = normalize(component)
            if isinstance(normal, Parallel):
                flat.extend(normal.components)
            elif not isinstance(normal, Nil):
                flat.append(normal)
        if not flat:
            return _NIL
        if len(flat) == 1:
            return flat[0]
        return Parallel(tuple(sorted(flat, key=canonical_key)))
    if isinstance(term, Scope):
        body = normalize(term.body)
        if isinstance(body, Nil):
            return _NIL
        if term.binder not in free_identifiers(body):
            return body
        return Scope(term.binder, body)
    if isinstance(term, Protect):
        body = normalize(term.body)
        if isinstance(body, (Nil, Protect)):
            return body
        return Protect(body)
    if isinstance(term, Replicate):
        body = normalize(term.body)
        if isinstance(body, Nil):
            return _NIL
        if isinstance(body, Replicate):
            return body
        return Replicate(body)
    if isinstance(term, TaskMarker):
        body = normalize(term.body)
        if isinstance(body, Nil):
            # A marker whose continuation can never act would linger
            # forever; it carries no behaviour, so it normalizes away.
            return _NIL
        return TaskMarker(term.role, term.task, body)
    raise TypeError(f"not a COWS term: {type(term).__name__}")


def canonical_key(term: Term) -> str:
    """A deterministic total-order key for sorting sibling terms.

    The term's text, which each node renders once and caches
    (:mod:`repro.cows.terms`).
    """
    return str(term)
