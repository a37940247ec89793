"""Audit trails — Definitions 4 and 5 of the paper.

A :class:`LogEntry` is the 8-tuple ``(u, r, a, o, q, c, t, s)``: user,
role held at action time, action, object, task, case, timestamp and task
status indicator.  An :class:`AuditTrail` is a chronologically ordered
sequence of entries.

Timestamps follow the paper's Fig. 4 format — ``YYYYMMDDHHMM`` — parsed
into :class:`datetime.datetime` for real arithmetic; helpers convert both
ways.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional

from repro.errors import TrailOrderError
from repro.policy.model import AccessRequest, ObjectRef

_PAPER_FORMAT = "%Y%m%d%H%M"


class Status(Enum):
    """The task status indicator of Definition 4."""

    SUCCESS = "success"
    FAILURE = "failure"

    def __str__(self) -> str:
        return self.value


def parse_timestamp(text: str) -> datetime:
    """Parse the paper's ``YYYYMMDDHHMM`` timestamp format."""
    return datetime.strptime(text, _PAPER_FORMAT)


def format_timestamp(when: datetime) -> str:
    """Render a timestamp in the paper's ``YYYYMMDDHHMM`` format."""
    return when.strftime(_PAPER_FORMAT)


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One audited event: ``(u, r, a, o, q, c, t, s)`` (Definition 4).

    ``obj`` may be ``None`` for object-less actions (the paper's Fig. 4
    records the failing ``cancel`` with object N/A).
    """

    user: str
    role: str
    action: str
    obj: Optional[ObjectRef]
    task: str
    case: str
    timestamp: datetime
    status: Status = Status.SUCCESS

    @classmethod
    def at(
        cls,
        user: str,
        role: str,
        action: str,
        obj: Optional[str],
        task: str,
        case: str,
        timestamp: str,
        status: Status = Status.SUCCESS,
    ) -> "LogEntry":
        """Convenience constructor taking paper-format strings."""
        return cls(
            user=user,
            role=role,
            action=action,
            obj=ObjectRef.parse(obj) if obj else None,
            task=task,
            case=case,
            timestamp=parse_timestamp(timestamp),
            status=status,
        )

    @property
    def succeeded(self) -> bool:
        return self.status is Status.SUCCESS

    @property
    def failed(self) -> bool:
        return self.status is Status.FAILURE

    def as_access_request(self) -> Optional[AccessRequest]:
        """The access request this entry answered (None for object-less events)."""
        if self.obj is None:
            return None
        return AccessRequest(
            user=self.user,
            action=self.action,
            obj=self.obj,
            task=self.task,
            case=self.case,
        )

    def shifted(self, delta: timedelta) -> "LogEntry":
        """A copy of the entry moved in time by *delta*."""
        return replace(self, timestamp=self.timestamp + delta)

    def __str__(self) -> str:
        obj = str(self.obj) if self.obj is not None else "N/A"
        return (
            f"{self.user} {self.role} {self.action} {obj} {self.task} "
            f"{self.case} {format_timestamp(self.timestamp)} {self.status}"
        )


class AuditTrail:
    """A chronologically ordered sequence of log entries (Definition 5).

    The constructor sorts entries by timestamp (ties keep input order,
    matching how a log table with a sequence column behaves).  ``strict``
    construction instead *rejects* out-of-order input — useful to assert
    that a store returned what it promised.

    A trail never changes after construction, so its per-case index
    (:meth:`by_case`) is built in one pass the first time a projection
    asks for it and then shared by every later one.
    """

    def __init__(self, entries: Iterable[LogEntry] = (), strict: bool = False):
        self._by_case: Optional[dict[str, AuditTrail]] = None
        items = list(entries)
        if strict:
            for earlier, later in zip(items, items[1:]):
                if earlier.timestamp > later.timestamp:
                    raise TrailOrderError(
                        f"entries out of order: {earlier} after {later}"
                    )
            self._entries = items
        else:
            self._entries = sorted(items, key=lambda e: e.timestamp)

    # -- sequence protocol -------------------------------------------------
    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> LogEntry:
        return self._entries[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AuditTrail):
            return NotImplemented
        return self._entries == other._entries

    @property
    def entries(self) -> list[LogEntry]:
        return list(self._entries)

    # -- projections --------------------------------------------------------
    def by_case(self) -> Mapping[str, "AuditTrail"]:
        """Every case's sub-trail, keyed in first-appearance order.

        Built in one pass over the entries on first use and cached: the
        projections of Definition 5 cost O(entries) for the whole trail,
        not O(entries) per case.
        """
        if self._by_case is None:
            grouped: dict[str, list[LogEntry]] = {}
            for entry in self._entries:
                grouped.setdefault(entry.case, []).append(entry)
            self._by_case = {
                case: AuditTrail(items) for case, items in grouped.items()
            }
        return MappingProxyType(self._by_case)

    def for_case(self, case: str) -> "AuditTrail":
        """The sub-trail of one process instance — what Algorithm 1 replays."""
        sub = self.by_case().get(case)
        return sub if sub is not None else AuditTrail()

    def for_user(self, user: str) -> "AuditTrail":
        return AuditTrail(e for e in self._entries if e.user == user)

    def touching(self, obj: ObjectRef) -> "AuditTrail":
        """Entries whose object lies in the subtree of *obj*."""
        return AuditTrail(
            e for e in self._entries if e.obj is not None and obj.covers(e.obj)
        )

    def filtered(self, predicate: Callable[[LogEntry], bool]) -> "AuditTrail":
        return AuditTrail(e for e in self._entries if predicate(e))

    def cases(self) -> list[str]:
        """The distinct cases, in first-appearance order."""
        return list(self.by_case())

    def cases_touching(self, obj: ObjectRef) -> list[str]:
        """The cases in which *obj* (or a descendant) was accessed."""
        return self.touching(obj).cases()

    def task_sequence(self) -> list[tuple[str, str, Status]]:
        """The (role, task, status) sequence — the observable skeleton."""
        return [(e.role, e.task, e.status) for e in self._entries]

    def merged_with(self, other: "AuditTrail") -> "AuditTrail":
        return AuditTrail([*self._entries, *other.entries])

    def span(self) -> Optional[tuple[datetime, datetime]]:
        if not self._entries:
            return None
        return self._entries[0].timestamp, self._entries[-1].timestamp
