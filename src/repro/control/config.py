"""Declarative, fingerprinted multi-tenant audit configurations.

The paper treats "the intended purpose" as one organizational process;
a deployed purpose-control service audits *many* purposes side by side,
and what it audits them against — process models, policy statements,
registry prefixes, the role hierarchy, serve budgets — must itself be a
versioned, auditable artifact (Kiesel & Grünewald's records-of-
processing argument, PAPERS.md).  This module is that artifact: one
JSON or TOML document, parsed into an immutable :class:`AuditConfig`,
content-fingerprinted per tenant so the control plane can answer "what
changed?" (:mod:`repro.control.reaudit`) and "what exactly was case
HT-1 audited against?".

Schema (JSON shown; TOML is isomorphic)::

    {
      "version": "2026-08-07",
      "hierarchy": {"nurse": ["physician"]},
      "budgets": {"flush_max_batch": 512, "case_timeout_s": 2.0},
      "tenants": [
        {
          "purpose": "healthcare",            // default: process purpose
          "prefix": "HT",                     // case-id prefix (required)
          "process": "healthcare.json",       // path, or inline:
          // "process_document": { ... },
          "policy": "healthcare.policy"       // path, or inline:
          // "policy_text": "..."             // optional either way
        }
      ]
    }

Paths resolve relative to the config file.  ``budgets`` keys must name
:class:`~repro.serve.core.ServeConfig` fields.  TOML parsing uses the
stdlib :mod:`tomllib` (Python 3.11+) and degrades to a clear
:class:`~repro.errors.ConfigError` on older interpreters — JSON always
works.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.bpmn.model import Process
from repro.bpmn.serialize import process_from_dict, process_to_dict
from repro.compile.fingerprint import fingerprint_process
from repro.errors import ConfigError
from repro.policy.hierarchy import RoleHierarchy
from repro.policy.model import Policy
from repro.policy.parser import parse_policy
from repro.policy.registry import ProcessRegistry
from repro.serve.core import ServeConfig

#: Bumped when the fingerprint payload shape changes — old ledgers then
#: diff as "everything changed" instead of silently comparing apples to
#: oranges.
CONFIG_FINGERPRINT_VERSION = 1

_TOP_LEVEL_KEYS = frozenset({"version", "hierarchy", "budgets", "tenants"})
_TENANT_KEYS = frozenset(
    {"purpose", "prefix", "process", "process_document", "policy", "policy_text"}
)
_BUDGET_FIELDS = frozenset(
    f.name for f in dataclasses.fields(ServeConfig)
)


@dataclass(frozen=True)
class TenantSpec:
    """One audited purpose: its process, case prefix, and policy."""

    purpose: str
    prefix: str
    process: Process
    policy_text: Optional[str] = None
    process_path: Optional[str] = None
    policy_path: Optional[str] = None

    def policy(self) -> Optional[Policy]:
        if self.policy_text is None:
            return None
        return parse_policy(self.policy_text)


@dataclass(frozen=True)
class AuditConfig:
    """A parsed, validated, fingerprintable audit configuration."""

    version: str
    tenants: tuple[TenantSpec, ...]
    hierarchy: Optional[RoleHierarchy] = None
    budgets: dict = dataclasses.field(default_factory=dict)
    source: Optional[str] = None

    # -- derived pipeline objects ---------------------------------------
    def registry(self) -> ProcessRegistry:
        """A fresh registry mapping every tenant's prefix to its process."""
        registry = ProcessRegistry()
        for tenant in self.tenants:
            registry.register(tenant.process, tenant.prefix)
        return registry

    def merged_policy(self) -> Policy:
        """Every tenant's statements in one policy.

        Safe to merge: statement lookup is always by purpose
        (``Policy.for_purpose``), so tenants cannot see each other's
        rules.
        """
        merged = Policy()
        for tenant in self.tenants:
            policy = tenant.policy()
            if policy is not None:
                merged.extend(policy.statements)
        return merged

    def tenant(self, purpose: str) -> Optional[TenantSpec]:
        for spec in self.tenants:
            if spec.purpose == purpose:
                return spec
        return None

    def serve_config(self, **base: object) -> ServeConfig:
        """A :class:`ServeConfig` with this config's budgets applied.

        ``base`` supplies the CLI-flag defaults; the document's
        ``budgets`` win on conflict — the config *is* the deployment's
        record, flags are operator convenience.
        """
        merged = dict(base)
        merged.update(self.budgets)
        return ServeConfig(**merged)  # type: ignore[arg-type]

    # -- fingerprints ----------------------------------------------------
    def tenant_fingerprints(self) -> dict[str, str]:
        """purpose -> content hash of everything the tenant is audited with.

        Covers the process model (via the compiler's canonical
        fingerprint, which also folds in the role hierarchy), the case
        prefix, and the policy text.  Budgets and the config version are
        deliberately excluded: they do not change any case's verdict, so
        they must not force a re-audit.
        """
        out: dict[str, str] = {}
        for tenant in self.tenants:
            payload = {
                "version": CONFIG_FINGERPRINT_VERSION,
                "prefix": tenant.prefix,
                "process": fingerprint_process(
                    tenant.process, hierarchy=self.hierarchy
                ),
                "policy": (
                    hashlib.sha256(
                        tenant.policy_text.encode("utf-8")
                    ).hexdigest()
                    if tenant.policy_text is not None
                    else None
                ),
            }
            out[tenant.purpose] = hashlib.sha256(
                _canonical(payload)
            ).hexdigest()
        return out

    def fingerprint(self) -> str:
        """The whole document's content hash (budgets included)."""
        payload = {
            "version": self.version,
            "budgets": {k: self.budgets[k] for k in sorted(self.budgets)},
            "tenants": self.tenant_fingerprints(),
        }
        return hashlib.sha256(_canonical(payload)).hexdigest()

    # -- validation ------------------------------------------------------
    def preflight(self, options=None, telemetry=None):
        """``repro lint`` over every tenant (the load-time gate).

        Returns the :class:`~repro.analysis.diagnostics.LintReport`; the
        caller decides whether errors are fatal (``repro serve
        --config`` refuses to start on lint errors unless
        ``--no-preflight``).
        """
        from repro.analysis import lint_registry

        return lint_registry(
            self.registry(),
            policy=self.merged_policy(),
            hierarchy=self.hierarchy,
            options=options,
            telemetry=telemetry,
        )

    # -- round-trip ------------------------------------------------------
    def to_document(self) -> dict:
        """A self-contained document (processes and policies inlined).

        ``parse_config(config.to_document())`` round-trips to equal
        fingerprints regardless of whether the original referenced
        external files.
        """
        tenants = []
        for tenant in self.tenants:
            spec: dict = {
                "purpose": tenant.purpose,
                "prefix": tenant.prefix,
                "process_document": process_to_dict(tenant.process),
            }
            if tenant.policy_text is not None:
                spec["policy_text"] = tenant.policy_text
            tenants.append(spec)
        document: dict = {"version": self.version, "tenants": tenants}
        if self.hierarchy is not None:
            document["hierarchy"] = self.hierarchy.to_parent_map()
        if self.budgets:
            document["budgets"] = dict(self.budgets)
        return document


def _canonical(payload: object) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")


def load_config(path: str) -> AuditConfig:
    """Parse a JSON (``.json``) or TOML (anything else) config file."""
    file = Path(path)
    try:
        text = file.read_text(encoding="utf-8")
    except OSError as error:
        raise ConfigError(f"cannot read config {path!r}: {error}") from error
    if file.suffix.lower() == ".json":
        try:
            document = json.loads(text)
        except ValueError as error:
            raise ConfigError(
                f"config {path!r} is not valid JSON: {error}"
            ) from error
    else:
        try:
            import tomllib
        except ImportError as error:  # pragma: no cover - Python < 3.11
            raise ConfigError(
                f"config {path!r} looks like TOML but this interpreter has "
                "no tomllib (Python 3.11+); use a .json config instead"
            ) from error
        try:
            document = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise ConfigError(
                f"config {path!r} is not valid TOML: {error}"
            ) from error
    return parse_config(document, base_dir=str(file.parent), source=str(file))


def parse_config(
    document: object,
    base_dir: Optional[str] = None,
    source: Optional[str] = None,
) -> AuditConfig:
    """Validate a config document into an :class:`AuditConfig`.

    Every structural problem — unknown keys, missing fields, duplicate
    purposes or prefixes, unreadable referenced files — raises
    :class:`~repro.errors.ConfigError` naming the offending tenant.
    """
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON/TOML object")
    unknown = set(document) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(
            f"unknown config keys {sorted(unknown)}; "
            f"expected a subset of {sorted(_TOP_LEVEL_KEYS)}"
        )
    version = document.get("version", "0")
    if not isinstance(version, str):
        version = str(version)

    hierarchy = None
    raw_hierarchy = document.get("hierarchy")
    if raw_hierarchy is not None:
        if not isinstance(raw_hierarchy, dict):
            raise ConfigError("'hierarchy' must map roles to parent lists")
        parent_map = {}
        for child, parents in raw_hierarchy.items():
            if isinstance(parents, str):
                parents = [parents]
            if not isinstance(parents, list):
                raise ConfigError(
                    f"hierarchy entry {child!r} must list parent roles"
                )
            parent_map[str(child)] = [str(parent) for parent in parents]
        hierarchy = RoleHierarchy.from_parent_map(parent_map)

    budgets = document.get("budgets", {})
    if not isinstance(budgets, dict):
        raise ConfigError("'budgets' must be an object of ServeConfig fields")
    bad_budgets = set(budgets) - _BUDGET_FIELDS
    if bad_budgets:
        raise ConfigError(
            f"unknown budget keys {sorted(bad_budgets)}; "
            "budgets must name ServeConfig fields"
        )
    try:
        ServeConfig(**budgets)
    except (TypeError, ValueError) as error:
        raise ConfigError(f"invalid budget: {error}") from error

    raw_tenants = document.get("tenants")
    if raw_tenants is None:
        raise ConfigError("config needs a 'tenants' list (at least one)")
    if isinstance(raw_tenants, dict):
        raw_tenants = [raw_tenants]
    if not isinstance(raw_tenants, list) or not raw_tenants:
        raise ConfigError("'tenants' must be a non-empty list")

    tenants: list[TenantSpec] = []
    seen_purposes: set[str] = set()
    seen_prefixes: set[str] = set()
    for index, raw in enumerate(raw_tenants):
        label = f"tenant #{index + 1}"
        if not isinstance(raw, dict):
            raise ConfigError(f"{label} must be an object")
        unknown = set(raw) - _TENANT_KEYS
        if unknown:
            raise ConfigError(
                f"{label} has unknown keys {sorted(unknown)}; "
                f"expected a subset of {sorted(_TENANT_KEYS)}"
            )
        process = _tenant_process(raw, label, base_dir)
        purpose = str(raw.get("purpose") or process.purpose)
        label = f"tenant {purpose!r}"
        prefix = raw.get("prefix")
        if not prefix or not isinstance(prefix, str):
            raise ConfigError(f"{label} needs a non-empty 'prefix' string")
        if purpose in seen_purposes:
            raise ConfigError(f"duplicate tenant purpose {purpose!r}")
        if prefix in seen_prefixes:
            raise ConfigError(f"duplicate case prefix {prefix!r}")
        seen_purposes.add(purpose)
        seen_prefixes.add(prefix)
        policy_text, policy_path = _tenant_policy(raw, label, base_dir)
        if purpose != process.purpose:
            # The registry routes by the *process* purpose; a tenant
            # alias that disagrees would audit cases against a process
            # nobody can look up.
            raise ConfigError(
                f"{label}: 'purpose' ({purpose!r}) does not match the "
                f"process's purpose ({process.purpose!r})"
            )
        tenants.append(
            TenantSpec(
                purpose=purpose,
                prefix=prefix,
                process=process,
                policy_text=policy_text,
                process_path=(
                    str(raw["process"]) if "process" in raw else None
                ),
                policy_path=policy_path,
            )
        )
    return AuditConfig(
        version=version,
        tenants=tuple(tenants),
        hierarchy=hierarchy,
        budgets=dict(budgets),
        source=source,
    )


def _resolve(base_dir: Optional[str], relative: str) -> Path:
    path = Path(relative)
    if not path.is_absolute() and base_dir is not None:
        path = Path(base_dir) / path
    return path


def _tenant_process(raw: dict, label: str, base_dir: Optional[str]) -> Process:
    inline = raw.get("process_document")
    reference = raw.get("process")
    if inline is not None and reference is not None:
        raise ConfigError(
            f"{label}: give 'process' (a path) or 'process_document' "
            "(inline), not both"
        )
    if inline is not None:
        if not isinstance(inline, dict):
            raise ConfigError(f"{label}: 'process_document' must be an object")
        try:
            return process_from_dict(inline)
        except Exception as error:
            raise ConfigError(
                f"{label}: bad inline process: {error}"
            ) from error
    if reference is None:
        raise ConfigError(
            f"{label} needs a 'process' path or 'process_document'"
        )
    path = _resolve(base_dir, str(reference))
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return process_from_dict(data)
    except OSError as error:
        raise ConfigError(
            f"{label}: cannot read process {str(path)!r}: {error}"
        ) from error
    except Exception as error:
        raise ConfigError(
            f"{label}: bad process document {str(path)!r}: {error}"
        ) from error


def _tenant_policy(
    raw: dict, label: str, base_dir: Optional[str]
) -> tuple[Optional[str], Optional[str]]:
    inline = raw.get("policy_text")
    reference = raw.get("policy")
    if inline is not None and reference is not None:
        raise ConfigError(
            f"{label}: give 'policy' (a path) or 'policy_text' (inline), "
            "not both"
        )
    if inline is not None:
        if not isinstance(inline, str):
            raise ConfigError(f"{label}: 'policy_text' must be a string")
        _check_policy(inline, label)
        return inline, None
    if reference is None:
        return None, None
    path = _resolve(base_dir, str(reference))
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ConfigError(
            f"{label}: cannot read policy {str(path)!r}: {error}"
        ) from error
    _check_policy(text, label)
    return text, str(reference)


def _check_policy(text: str, label: str) -> None:
    try:
        parse_policy(text)
    except Exception as error:
        raise ConfigError(f"{label}: bad policy: {error}") from error
