"""The Chain method — the other operational purpose model (related work [27]).

Al-Fedaghi's Chain method specifies privacy policy as the "chains of
acts" users may perform on personal information: purposes are implicit
in the allowed *sequences of acts* (create, collect, process, disclose,
...).  The paper's Section 6 credits it as the only other operational
purpose model and criticizes it on two counts:

1. it forces business behaviour to be specified at the **action** level,
   "introducing an undesirable complexity into process models" (no reuse
   of existing BPMN assets);
2. it is **preventive** and "lacks capability to reconstruct the
   sequence of acts when chains are executed concurrently".

This module implements the method so benchmark E12b can demonstrate both
points empirically: a :class:`ChainPolicy` accepts act sequences that
are interleavings of its chains; the greedy online matcher that a
preventive enforcement point must use mis-attributes acts once chains
overlap, producing false verdicts that Algorithm 1 (which has cases to
separate instances) does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import PolicyError

if TYPE_CHECKING:  # pragma: no cover - avoids a policy <-> audit import cycle
    from repro.audit.model import AuditTrail, LogEntry


@dataclass(frozen=True)
class Act:
    """One act of a chain: an action verb on an object-path prefix."""

    action: str
    object_prefix: tuple[str, ...]

    @classmethod
    def parse(cls, text: str) -> "Act":
        action, _, path = text.partition(" ")
        if not action or not path:
            raise PolicyError(f"an act needs 'action path', got {text!r}")
        return cls(action, tuple(path.split("/")))

    def matches(self, entry: LogEntry) -> bool:
        if entry.action != self.action or entry.obj is None:
            return False
        path = entry.obj.path
        return path[: len(self.object_prefix)] == self.object_prefix

    def __str__(self) -> str:
        return f"{self.action} {'/'.join(self.object_prefix)}"


@dataclass(frozen=True)
class Chain:
    """An allowed chain of acts (implicitly defining a purpose)."""

    name: str
    acts: tuple[Act, ...]

    def __post_init__(self) -> None:
        if not self.acts:
            raise PolicyError(f"chain {self.name!r} has no acts")

    def __len__(self) -> int:
        return len(self.acts)


@dataclass
class ChainPolicy:
    """A set of allowed chains (the Chain method's policy object)."""

    chains: list[Chain] = field(default_factory=list)

    def add_chain(self, name: str, acts: Iterable[str | Act]) -> "ChainPolicy":
        parsed = tuple(
            act if isinstance(act, Act) else Act.parse(act) for act in acts
        )
        self.chains.append(Chain(name, parsed))
        return self

    # -- the preventive, greedy online matcher --------------------------------
    def check_greedy(self, trail: AuditTrail | list[LogEntry]) -> "ChainVerdict":
        """The enforcement a preventive chain monitor can actually run.

        Each incoming act must extend some in-progress chain instance or
        start a new chain whose first act matches; the matcher is greedy
        and — crucially — has **no case information**, the paper's
        criticism: when chains execute concurrently it cannot reconstruct
        which instance an act belongs to.
        """
        in_progress: list[tuple[Chain, int]] = []  # (chain, next act index)
        accepted = 0
        for entry in trail:
            matched = False
            for index, (chain, position) in enumerate(in_progress):
                if chain.acts[position].matches(entry):
                    if position + 1 == len(chain.acts):
                        in_progress.pop(index)
                    else:
                        in_progress[index] = (chain, position + 1)
                    matched = True
                    break
            if not matched:
                for chain in self.chains:
                    if chain.acts[0].matches(entry):
                        if len(chain.acts) > 1:
                            in_progress.append((chain, 1))
                        matched = True
                        break
            if not matched:
                return ChainVerdict(False, accepted, entry)
            accepted += 1
        return ChainVerdict(True, accepted, None)

    def check_per_case(self, trail: AuditTrail) -> dict[str, "ChainVerdict"]:
        """What the matcher would do *if* it had case separation — the
        information Algorithm 1 gets for free from Definition 4 logs."""
        return {
            case: self.check_greedy(case_trail)
            for case, case_trail in trail.by_case().items()
        }


@dataclass(frozen=True)
class ChainVerdict:
    compliant: bool
    accepted: int
    failed_entry: Optional[LogEntry]

    def __bool__(self) -> bool:
        return self.compliant
