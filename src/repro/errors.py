"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries while the
subclasses keep failure modes distinguishable.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class CowsError(ReproError):
    """Base class for errors raised by the COWS calculus substrate."""


class CowsSyntaxError(CowsError):
    """A textual COWS specification could not be parsed."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class SubstitutionError(CowsError):
    """A substitution could not be applied (e.g. binder capture)."""


class NotFinitelyObservableError(CowsError):
    """The unobservable closure of a state exceeded the exploration bound.

    Raised by WeakNext when a process is not finitely observable with
    respect to the observable label set (Definition 8 of the paper) —
    i.e. the process can perform unboundedly many silent transitions
    without ever producing an observable label.
    """

    def __init__(self, message: str, states_explored: int = 0):
        super().__init__(message)
        self.states_explored = states_explored


class BpmnError(ReproError):
    """Base class for errors raised by the BPMN substrate."""


class ProcessValidationError(BpmnError):
    """A BPMN process failed structural validation.

    The offending problems are listed in :attr:`problems`.
    """

    def __init__(self, message: str, problems: list[str] | None = None):
        super().__init__(message)
        self.problems = list(problems or [])


class NotWellFoundedError(ProcessValidationError):
    """A BPMN process contains a cycle with no observable activity.

    Such processes fall outside the decidable fragment of Algorithm 1
    (Section 5 of the paper): WeakNext would not terminate on them.
    """


class EncodingError(BpmnError):
    """The BPMN -> COWS encoding failed."""


class PolicyError(ReproError):
    """Base class for errors raised by the data-protection policy engine."""


class PolicySyntaxError(PolicyError):
    """A textual policy statement could not be parsed."""


class UnknownPurposeError(PolicyError):
    """An access request or case referenced a purpose with no registered process."""


class AuditError(ReproError):
    """Base class for errors raised by the audit-trail substrate."""


class MalformedEntryError(AuditError):
    """A stored or serialized log entry could not be decoded.

    Raised at ingestion boundaries (SQLite rows, XES events, batch
    appends) when raw data does not round-trip into a valid
    :class:`repro.audit.model.LogEntry`.  ``position`` locates the
    offending record in its source (sequence number, event index, or
    batch offset).
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class CaseTimeoutError(ReproError):
    """A case replay exceeded its wall-clock budget.

    The budget is cooperative: it is checked between replayed entries,
    and — for the streaming case engine's budget — before each state a
    charged entry's WeakNext exploration expands.  ``max_silent_states``
    stays the guard that bounds one exploration by states.
    """

    def __init__(
        self,
        message: str,
        budget_s: float | None = None,
        elapsed_s: float | None = None,
    ):
        super().__init__(message)
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s


class CompileError(ReproError):
    """Base class for errors raised by the purpose-automaton compiler."""


class ArtifactError(CompileError):
    """A persisted automaton artifact could not be used.

    Raised when an artifact file is truncated, malformed, carries an
    unsupported format version, or its fingerprint does not match the
    process it is being loaded for.  Callers are expected to log a
    ``compile.artifact_invalid`` event and recompile transparently —
    an invalid artifact must never fail an audit.
    """

    def __init__(self, message: str, reason: str = "invalid"):
        super().__init__(message)
        self.reason = reason


class AutomatonExplosionError(CompileError):
    """The subset construction materialized more states than allowed.

    Mirrors ``FrontierExplosionError`` one level up: the *per-step*
    frontier bound guards one replay, this bound guards the accumulated
    state space of the compiled automaton.  Replay falls back to the
    interpreted engine when it trips.
    """

    def __init__(self, message: str, states: int = 0):
        super().__init__(message)
        self.states = states


class AutomatonUnavailableError(CompileError):
    """A compiled transition was missing and no engine can derive it.

    Raised by a pure-disk automaton (no COWS engine attached and no way
    to build one) on a transition miss; the compiled checker catches it
    and replays the case through the interpreted engine instead.
    """


class IntegrityError(AuditError):
    """The hash chain of an audit store failed verification."""

    def __init__(self, message: str, first_bad_seq: int | None = None):
        super().__init__(message)
        self.first_bad_seq = first_bad_seq


class TrailOrderError(AuditError):
    """Log entries were appended or combined out of chronological order."""


class GenerationError(AuditError):
    """The synthetic trail generator could not produce a requested trail."""


class ConformanceError(ReproError):
    """Base class for errors raised by the Petri-net conformance baseline."""


class PetriNetError(ConformanceError):
    """A Petri net was structurally invalid or an illegal firing was requested."""


class ConfigError(ReproError):
    """A declarative audit-config document could not be loaded.

    Raised by :mod:`repro.control.config` for unparseable documents,
    unknown keys, missing tenant fields, duplicate purposes/prefixes,
    unreadable referenced files, and TOML configs on interpreters
    without :mod:`tomllib`.
    """
