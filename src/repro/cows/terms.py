"""Abstract syntax of COWS services (the minimal fragment of the paper).

The grammar, from Section 3.3 of the paper::

    s ::= p.o!<w>  |  [d]s  |  g  |  s | s  |  {|s|}  |  kill(k)  |  *s
    g ::= 0  |  p.o?<w>.s  |  g + g

Terms are immutable, hashable dataclasses.  The module also provides the
two syntactic operations the semantics needs:

* :func:`free_identifiers` — the free names / variables / killer labels of
  a term (used by scope delimiters and garbage collection);
* :func:`substitute` — capture-avoiding application of a variable
  substitution (used when a communication instantiates a pattern).

One extension beyond the paper's grammar is :class:`TaskMarker`, a wrapper
that is *transparent* to the operational semantics: it marks the body of a
triggered BPMN task so that the set of active tasks of a state
(Definition 6) can be read off the term.  The marker evaporates as soon as
the wrapped continuation performs its first activity — i.e. when the
process token moves past the task.  See DESIGN.md, Section 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping, Union

from repro.errors import SubstitutionError
from repro.cows.names import Binder, Endpoint, KillerLabel, Name, Parameter, Variable

Term = Union[
    "Nil",
    "Invoke",
    "Request",
    "Choice",
    "Parallel",
    "Scope",
    "Protect",
    "Kill",
    "Replicate",
    "TaskMarker",
]


@dataclass(frozen=True)
class Nil:
    """The empty activity ``0``."""

    def __str__(self) -> str:
        return "0"


@dataclass(frozen=True)
class Invoke:
    """An invoke (send) activity ``p.o!<w1, ..., wn>``.

    Parameters must be ground (names) for the activity to be executable;
    an invoke whose parameters still contain variables is stuck until the
    enclosing scopes instantiate them.
    """

    endpoint: Endpoint
    params: tuple[Parameter, ...] = ()

    def __str__(self) -> str:
        args = ", ".join(str(p) for p in self.params)
        return f"{self.endpoint}!<{args}>"

    @property
    def is_ground(self) -> bool:
        """Whether every parameter is a name (no free variables left)."""
        return all(isinstance(p, Name) for p in self.params)


@dataclass(frozen=True)
class Request:
    """A request (receive) prefix ``p.o?<w1, ..., wn>. s``.

    Parameters that are variables act as a pattern: communication binds
    them to the corresponding values of a matching invoke.
    """

    endpoint: Endpoint
    params: tuple[Parameter, ...]
    continuation: Term

    def __str__(self) -> str:
        args = ", ".join(str(p) for p in self.params)
        if isinstance(self.continuation, Nil):
            return f"{self.endpoint}?<{args}>"
        if isinstance(self.continuation, (Choice, Parallel)):
            # Parenthesize so the textual form parses back unambiguously.
            return f"{self.endpoint}?<{args}>.({self.continuation})"
        return f"{self.endpoint}?<{args}>.{self.continuation}"


@dataclass(frozen=True)
class Choice:
    """A guarded choice ``g1 + g2 + ... + gn`` between request prefixes.

    The empty choice is ``0``; prefer :class:`Nil` for that.  A choice of
    one branch behaves exactly like that branch.
    """

    branches: tuple[Request, ...]

    def __post_init__(self) -> None:
        for branch in self.branches:
            if not isinstance(branch, Request):
                raise TypeError(
                    "choice branches must be request prefixes, "
                    f"got {type(branch).__name__}"
                )

    def __str__(self) -> str:
        return " + ".join(f"({b})" for b in self.branches)


@dataclass(frozen=True)
class Parallel:
    """Parallel composition ``s1 | s2 | ... | sn``."""

    components: tuple[Term, ...]

    def __str__(self) -> str:
        return " | ".join(f"({c})" for c in self.components)


@dataclass(frozen=True)
class Scope:
    """A scope delimiter ``[d]s`` binding a name, variable or killer label."""

    binder: Binder
    body: Term

    def __str__(self) -> str:
        return f"[{self.binder}]({self.body})"


@dataclass(frozen=True)
class Protect:
    """The protection block ``{|s|}``: *s* survives kill signals."""

    body: Term

    def __str__(self) -> str:
        return f"{{|{self.body}|}}"


@dataclass(frozen=True)
class Kill:
    """The kill activity ``kill(k)``."""

    label: KillerLabel

    def __str__(self) -> str:
        return f"kill({self.label.value})"


@dataclass(frozen=True)
class Replicate:
    """Replication ``*s``: spawns as many copies of *s* as needed."""

    body: Term

    def __str__(self) -> str:
        return f"*({self.body})"


@dataclass(frozen=True)
class TaskMarker:
    """Transparent wrapper marking an *active* BPMN task (see module docs).

    ``role`` and ``task`` identify the task in the sense of the paper's
    observable labels ``r . q``.  The marker contributes the pair
    ``(role, task)`` to the active-task set of every state whose term
    contains it at an active position.
    """

    role: Name
    task: Name
    body: Term

    def __str__(self) -> str:
        return f"<{self.role}.{self.task}>({self.body})"


def parallel(*components: Term) -> Term:
    """Build a parallel composition, flattening trivial cases."""
    flat: list[Term] = []
    for component in components:
        if isinstance(component, Parallel):
            flat.extend(component.components)
        elif not isinstance(component, Nil):
            flat.append(component)
    if not flat:
        return Nil()
    if len(flat) == 1:
        return flat[0]
    return Parallel(tuple(flat))


def choice(*branches: Request) -> Term:
    """Build a guarded choice, flattening trivial cases."""
    if not branches:
        return Nil()
    if len(branches) == 1:
        return branches[0]
    return Choice(tuple(branches))


def scope(binders: Iterable[Binder] | Binder, body: Term) -> Term:
    """Wrap *body* in one scope delimiter per binder (left to right)."""
    if isinstance(binders, (Name, Variable, KillerLabel)):
        binders = [binders]
    return reduce(lambda acc, d: Scope(d, acc), reversed(list(binders)), body)


_FREE_CACHE: dict[Term, frozenset[Binder]] = {}


def free_identifiers(term: Term) -> frozenset[Binder]:
    """The free names, variables and killer labels of *term*.

    Names occurring as endpoint partners/operations, as parameters or as
    kill targets are all collected; scope delimiters remove their binder
    from the set of the body.  Results are memoized: scope garbage
    collection asks this question about the same subterms constantly.
    """
    cached = _FREE_CACHE.get(term)
    if cached is not None:
        return cached
    result = _free_identifiers(term)
    _FREE_CACHE[term] = result
    return result


def _free_identifiers(term: Term) -> frozenset[Binder]:
    if isinstance(term, Nil):
        return frozenset()
    if isinstance(term, Invoke):
        return frozenset(
            {term.endpoint.partner, term.endpoint.operation, *term.params}
        )
    if isinstance(term, Request):
        own = frozenset(
            {term.endpoint.partner, term.endpoint.operation, *term.params}
        )
        return own | free_identifiers(term.continuation)
    if isinstance(term, Choice):
        return frozenset().union(*(free_identifiers(b) for b in term.branches))
    if isinstance(term, Parallel):
        return frozenset().union(*(free_identifiers(c) for c in term.components))
    if isinstance(term, Scope):
        return free_identifiers(term.body) - {term.binder}
    if isinstance(term, (Protect, Replicate)):
        return free_identifiers(term.body)
    if isinstance(term, Kill):
        return frozenset({term.label})
    if isinstance(term, TaskMarker):
        return free_identifiers(term.body) | {term.role, term.task}
    raise TypeError(f"not a COWS term: {type(term).__name__}")


def substitute(term: Term, mapping: Mapping[Variable, Name]) -> Term:
    """Apply the variable substitution *mapping* to *term*.

    The substitution maps variables to ground names — exactly what a
    communication produces when a request pattern matches an invoke.
    Substitution stops at scope delimiters that rebind one of the mapped
    variables (shadowing), which keeps it capture-avoiding for the terms
    the BPMN encoding produces (each variable has a single binding scope).
    """
    if not mapping:
        return term
    return _substitute(term, dict(mapping))


def _substitute(term: Term, mapping: dict[Variable, Name]) -> Term:
    if isinstance(term, Nil):
        return term
    if isinstance(term, Invoke):
        return Invoke(term.endpoint, _subst_params(term.params, mapping))
    if isinstance(term, Request):
        return Request(
            term.endpoint,
            _subst_params(term.params, mapping),
            _substitute(term.continuation, mapping),
        )
    if isinstance(term, Choice):
        branches = tuple(_substitute(b, mapping) for b in term.branches)
        return Choice(branches)  # type: ignore[arg-type]
    if isinstance(term, Parallel):
        return Parallel(tuple(_substitute(c, mapping) for c in term.components))
    if isinstance(term, Scope):
        if isinstance(term.binder, Variable) and term.binder in mapping:
            narrowed = {v: n for v, n in mapping.items() if v != term.binder}
            if not narrowed:
                return term
            return Scope(term.binder, _substitute(term.body, narrowed))
        if isinstance(term.binder, Name):
            # Only substitutions that actually reach the body matter for
            # capture; a mapped variable that is not free below the scope
            # is harmless.
            free_below = free_identifiers(term.body)
            relevant = {v: n for v, n in mapping.items() if v in free_below}
            if not relevant:
                return term
            if term.binder in relevant.values():
                # The body is about to receive a name the scope would
                # capture.  The BPMN encoding never produces this shape;
                # fail loudly rather than silently change the term.
                raise SubstitutionError(
                    f"substitution would capture private name {term.binder}"
                )
            return Scope(term.binder, _substitute(term.body, relevant))
        return Scope(term.binder, _substitute(term.body, mapping))
    if isinstance(term, Protect):
        return Protect(_substitute(term.body, mapping))
    if isinstance(term, Kill):
        return term
    if isinstance(term, Replicate):
        return Replicate(_substitute(term.body, mapping))
    if isinstance(term, TaskMarker):
        return TaskMarker(term.role, term.task, _substitute(term.body, mapping))
    raise TypeError(f"not a COWS term: {type(term).__name__}")


def _subst_params(
    params: tuple[Parameter, ...], mapping: Mapping[Variable, Name]
) -> tuple[Parameter, ...]:
    return tuple(
        mapping.get(p, p) if isinstance(p, Variable) else p for p in params
    )


def active_tasks(term: Term) -> frozenset[tuple[Name, Name]]:
    """Collect the ``(role, task)`` pairs of the active-position markers.

    A marker is at an *active position* when it is not guarded by a prefix
    and not under a replication (an un-spawned copy is not running).  This
    is the ``active_tasks`` component of a configuration (Definition 6).
    """
    found: set[tuple[Name, Name]] = set()
    _collect_markers(term, found)
    return frozenset(found)


def _collect_markers(term: Term, found: set[tuple[Name, Name]]) -> None:
    if isinstance(term, TaskMarker):
        found.add((term.role, term.task))
        _collect_markers(term.body, found)
    elif isinstance(term, Parallel):
        for component in term.components:
            _collect_markers(component, found)
    elif isinstance(term, (Scope, Protect)):
        _collect_markers(term.body, found)
    # Prefixes (Request/Choice), Replicate, Invoke, Kill, Nil contribute
    # nothing: their bodies are not yet running.


def _cached_hash(field_names: tuple[str, ...]):
    """A structural ``__hash__`` that computes once and caches on the node.

    Terms are deeply nested immutable trees; the LTS machinery hashes the
    same nodes millions of times.  The dataclass-generated hash walks the
    whole tree on every call; caching it is the single largest speedup of
    the whole library (see the ablation notes in DESIGN.md).
    """

    def __hash__(self):  # noqa: N807 - installed as a dunder
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(
                (type(self).__name__,)
                + tuple(getattr(self, name) for name in field_names)
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    return __hash__


def _cached_str(render):
    """A ``__str__`` that renders once and caches the text on the node.

    A term's text embeds the text of its subterms, and successor states
    share most of their subterms with the state they came from.  With
    the text cached beside the hash, rendering a new state formats only
    its new nodes; the compiler digests every state by its text
    (:func:`repro.compile.fingerprint.term_digest`) and the normal form
    sorts siblings by it (:func:`repro.cows.congruence.canonical_key`).
    """

    def __str__(self):  # noqa: N807 - installed as a dunder
        cached = self.__dict__.get("_text")
        if cached is None:
            cached = render(self)
            object.__setattr__(self, "_text", cached)
        return cached

    return __str__


for _cls, _fields in (
    (Nil, ()),
    (Invoke, ("endpoint", "params")),
    (Request, ("endpoint", "params", "continuation")),
    (Choice, ("branches",)),
    (Parallel, ("components",)),
    (Scope, ("binder", "body")),
    (Protect, ("body",)),
    (Kill, ("label",)),
    (Replicate, ("body",)),
    (TaskMarker, ("role", "task", "body")),
):
    _cls.__hash__ = _cached_hash(_fields)  # type: ignore[method-assign]
    # A composition's text is a cheap join of its components' cached
    # text, and a state is a composition: caching it too would keep a
    # copy of every state's whole text for as long as the state lives.
    if _cls is not Parallel:
        _cls.__str__ = _cached_str(_cls.__str__)  # type: ignore[method-assign]
