"""Data-protection policy model (Definitions 1 and 2 of the paper).

* :class:`ObjectRef` — hierarchical, subject-tagged resources with the
  partial order ``>=O`` ("[Jane]EPR >=O [Jane]EPR/Clinical");
* :class:`Statement` — a data protection statement ``(s, a, o, p)``:
  who may perform which action on which object for which purpose;
* :class:`Policy` — a set of statements;
* :class:`AccessRequest` — ``(u, a, o, q, c)``: a user asking to perform
  an action on an object within task ``q`` of process instance ``c``;
* :class:`UserDirectory` — the user -> active-roles assignment the
  evaluation needs ("u has role r2 active", Definition 3);
* :class:`ConsentRegistry` — which data subjects consented to which
  purposes, supporting the consent-conditional statement of Fig. 3
  (``(Physician, read, [X]EPR, clinicaltrial)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from repro.errors import PolicyError

#: The built-in action vocabulary of Section 3.1.  Free-form action names
#: are allowed everywhere; these constants just avoid typos.
READ = "read"
WRITE = "write"
EXECUTE = "execute"

#: The wildcard subject of statements like ``[.]EPR`` — any data subject.
ANY_SUBJECT = "*"

#: Distinct object texts :meth:`ObjectRef.parse` remembers (least
#: recently used evicted first).
PARSE_MEMO_SIZE = 1 << 16


@dataclass(frozen=True, slots=True)
class ObjectRef:
    """A hierarchical resource reference, optionally tagged with a subject.

    ``[Jane]EPR/Clinical`` parses to ``ObjectRef("Jane", ("EPR", "Clinical"))``;
    a plain ``ClinicalTrial/Criteria`` has ``subject=None``.  Statements
    use ``subject=ANY_SUBJECT`` for "any patient" (written ``[.]`` in the
    paper's Fig. 3).

    Every reference reads back as itself: construction raises
    :class:`PolicyError` when the printed text would parse as another
    reference (``ObjectRef(None, (" EPR",))`` prints as ``" EPR"``,
    which parses as ``EPR``) or holds text UTF-8 cannot encode (a lone
    surrogate).  The store keeps that text, and its chain check and
    every resume parse it back.
    """

    subject: Optional[str]
    path: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.path:
            raise PolicyError("an object reference needs a non-empty path")
        if any(not part for part in self.path):
            raise PolicyError("object path components must be non-empty")
        text = str(self)
        if _tokenize(text) != (self.subject, self.path):
            raise PolicyError(
                f"{self!r} does not read back from its text {text!r}"
            )
        if not text.isascii():
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as error:
                raise PolicyError(
                    f"object reference {text!r} cannot be stored as UTF-8: "
                    f"{error.reason}"
                ) from None

    @staticmethod
    def parse(text: str) -> "ObjectRef":
        """Parse ``[Jane]EPR/Clinical``, ``[.]EPR``, ``[*]EPR`` or ``A/B``.

        Equal texts share one instance (references are frozen), so the
        wire decoder, the XES importer and store reads keep one copy of
        each distinct object however many entries carry it.  A text
        naming a reference that does not read back as itself
        (``"/ EPR"`` names path ``(" EPR",)``) raises :class:`PolicyError`.
        """
        return _parse_memo(text)

    def __str__(self) -> str:
        path = "/".join(self.path)
        if self.subject is None:
            return path
        tag = "." if self.subject == ANY_SUBJECT else self.subject
        return f"[{tag}]{path}"

    def covers(self, other: "ObjectRef") -> bool:
        """Whether ``self >=O other`` — self's subtree contains *other*.

        Subject rules: the wildcard covers any subject (including none);
        a named subject only covers the same subject; a subject-less
        reference only covers subject-less ones.
        """
        if self.subject != ANY_SUBJECT and self.subject != other.subject:
            return False
        if len(self.path) > len(other.path):
            return False
        return other.path[: len(self.path)] == self.path

    def with_subject(self, subject: str) -> "ObjectRef":
        return ObjectRef(subject, self.path)


def _tokenize(text: str) -> tuple[Optional[str], tuple[str, ...]]:
    """The ``(subject, path)`` that *text* names, unchecked."""
    subject: Optional[str] = None
    rest = text.strip()
    if rest.startswith("["):
        end = rest.find("]")
        if end < 0:
            raise PolicyError(f"unterminated subject tag in {text!r}")
        tag = rest[1:end].strip()
        subject = ANY_SUBJECT if tag in (".", "*", "") else tag
        rest = rest[end + 1 :]
    if not rest:
        raise PolicyError(f"object reference {text!r} has no path")
    return subject, tuple(part for part in rest.split("/") if part)


def _parse_object(text: str) -> ObjectRef:
    """:meth:`ObjectRef.parse` without the memo."""
    return ObjectRef(*_tokenize(text))


# Bounded: a stream of distinct objects evicts, it never grows the memo.
# Failed parses raise out of the call and are not remembered.
_parse_memo = lru_cache(maxsize=PARSE_MEMO_SIZE)(_parse_object)


@dataclass(frozen=True, slots=True)
class Statement:
    """A data protection statement ``(s, a, o, p)`` (Definition 1).

    ``subject`` names either a role or a concrete user; evaluation tries
    both interpretations.  ``requires_consent`` marks statements like the
    ``[X]EPR`` row of Fig. 3: the data subject must have consented to the
    statement's purpose.
    """

    subject: str
    action: str
    obj: ObjectRef
    purpose: str
    requires_consent: bool = False

    def __str__(self) -> str:
        tag = "[consent] " if self.requires_consent else ""
        return f"{tag}({self.subject}, {self.action}, {self.obj}, {self.purpose})"


@dataclass
class Policy:
    """A data protection policy: a set of statements (Definition 1)."""

    statements: list[Statement] = field(default_factory=list)

    def add(self, statement: Statement) -> "Policy":
        self.statements.append(statement)
        return self

    def extend(self, statements: Iterable[Statement]) -> "Policy":
        self.statements.extend(statements)
        return self

    def for_purpose(self, purpose: str) -> list[Statement]:
        return [s for s in self.statements if s.purpose == purpose]

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)


@dataclass(frozen=True, slots=True)
class AccessRequest:
    """An access request ``(u, a, o, q, c)`` (Definition 2)."""

    user: str
    action: str
    obj: ObjectRef
    task: str
    case: str

    def __str__(self) -> str:
        return (
            f"({self.user}, {self.action}, {self.obj}, "
            f"task={self.task}, case={self.case})"
        )


class UserDirectory:
    """The user -> active-roles assignment used by Definition 3.

    The paper assumes role membership is established at authentication
    time; this directory is that post-authentication view.
    """

    def __init__(self) -> None:
        self._roles: dict[str, set[str]] = {}

    def assign(self, user: str, *roles: str) -> "UserDirectory":
        if not user:
            raise PolicyError("user names must be non-empty")
        self._roles.setdefault(user, set()).update(roles)
        return self

    def revoke(self, user: str, role: str) -> "UserDirectory":
        self._roles.get(user, set()).discard(role)
        return self

    def roles_of(self, user: str) -> frozenset[str]:
        return frozenset(self._roles.get(user, ()))

    def users(self) -> frozenset[str]:
        return frozenset(self._roles)

    def users_with_role(self, role: str) -> frozenset[str]:
        return frozenset(u for u, roles in self._roles.items() if role in roles)


class ConsentRegistry:
    """Which data subjects consented to which purposes.

    In the running example Jane did **not** consent to research purposes,
    so the consent-conditional clinical-trial statement never applies to
    her EPR (footnote 3 of the paper).
    """

    def __init__(self) -> None:
        self._consents: dict[str, set[str]] = {}

    def grant(self, subject: str, purpose: str) -> "ConsentRegistry":
        self._consents.setdefault(subject, set()).add(purpose)
        return self

    def withdraw(self, subject: str, purpose: str) -> "ConsentRegistry":
        self._consents.get(subject, set()).discard(purpose)
        return self

    def has_consented(self, subject: Optional[str], purpose: str) -> bool:
        if subject is None:
            return False
        return purpose in self._consents.get(subject, ())

    def consenting_subjects(self, purpose: str) -> frozenset[str]:
        return frozenset(
            s for s, purposes in self._consents.items() if purpose in purposes
        )
