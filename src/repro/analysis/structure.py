"""Structural and automaton-facing lint (PC1xx and PC4xx).

PC1xx wraps the existing structural validation and well-foundedness
machinery of :mod:`repro.bpmn.validate` into diagnostics; PC4xx flags
shapes that are *legal* but expensive or fragile:

* **PC401** — an inclusive split fanning out to many branches.  Both the
  COWS-style encoding and the Petri translation enumerate every
  non-empty branch subset, so cost is ``2^n - 1`` per split.
* **PC402** — estimated concurrency high enough to risk subset-
  construction blow-up when compiling the purpose automaton to a DFA
  (:mod:`repro.compile`): determinization is exponential in the
  number of simultaneously-live positions.
* **PC403** — *fragile* well-foundedness: a cycle that is well-founded
  only by a single observable.  Deleting or renaming that one task (or
  error edge) during process evolution silently breaks the Section 5
  precondition, so we warn while the model is still legal.
"""

from __future__ import annotations

from itertools import islice

from repro.bpmn.model import ElementType, Process
from repro.bpmn.validate import (
    MAX_INCLUSIVE_BRANCHES,
    flow_graph,
    non_well_founded_cycles,
    structural_problems,
)

from repro.analysis.diagnostics import Diagnostic, diag

#: Inclusive fan-out from which PC401 starts warning (2^4 - 1 = 15
#: subset transitions per gateway); the hard structural limit stays
#: :data:`repro.bpmn.validate.MAX_INCLUSIVE_BRANCHES`.
INCLUSIVE_FANOUT_WARN = 4

#: Estimated concurrent token count from which PC402 warns: the subset
#: construction is exponential in live positions, and past this many the
#: compiled DFA can dwarf the NFA.
CONCURRENCY_WARN = 8

#: How many fragile cycles to report before stopping enumeration.
MAX_FRAGILE_CYCLES = 10


def structure_diagnostics(process: Process) -> list[Diagnostic]:
    """All PC1xx/PC4xx findings for *process*.

    When PC101 problems exist the deeper checks are skipped — a broken
    document makes graph analyses meaningless — so callers can rely on:
    PC102/PC4xx only ever appear for structurally valid processes.
    """
    process_id = process.process_id
    purpose = process.purpose
    found: list[Diagnostic] = []

    problems = structural_problems(process)
    if problems:
        for problem in problems:
            found.append(
                diag(
                    "PC101",
                    problem,
                    process_id=process_id,
                    purpose=purpose,
                )
            )
        return found

    for cycle in non_well_founded_cycles(process):
        found.append(
            diag(
                "PC102",
                "cycle without observable activity: "
                + " -> ".join(cycle)
                + " (WeakNext would diverge; the paper's well-foundedness "
                "precondition is violated)",
                process_id=process_id,
                purpose=purpose,
                elements=tuple(cycle),
                hint="put a task on the cycle or route it through an "
                "error edge",
            )
        )

    found.extend(_inclusive_fanout(process))
    found.extend(_state_explosion(process))
    found.extend(_fragile_cycles(process))
    return found


def _inclusive_fanout(process: Process) -> list[Diagnostic]:
    found: list[Diagnostic] = []
    for gateway in process.elements_of_type(ElementType.INCLUSIVE_GATEWAY):
        fanout = len(process.outgoing(gateway.element_id))
        if fanout >= INCLUSIVE_FANOUT_WARN:
            subsets = 2**fanout - 1
            found.append(
                diag(
                    "PC401",
                    f"inclusive split {gateway.element_id!r} fans out to "
                    f"{fanout} branches: its encoding enumerates "
                    f"{subsets} branch subsets (hard limit "
                    f"{MAX_INCLUSIVE_BRANCHES})",
                    process_id=process.process_id,
                    purpose=process.purpose,
                    elements=(gateway.element_id,),
                    hint="split the decision into a cascade of smaller "
                    "inclusive or exclusive gateways",
                )
            )
    return found


def _estimated_concurrency(process: Process) -> int:
    """A cheap upper estimate of simultaneously-live tokens: 1 per start
    event, plus each AND/OR split multiplies by adding (fanout - 1)."""
    tokens = max(1, len(process.start_events))
    for element in process.elements.values():
        if element.element_type in (
            ElementType.PARALLEL_GATEWAY,
            ElementType.INCLUSIVE_GATEWAY,
        ):
            fanout = len(process.outgoing(element.element_id))
            if fanout > 1:
                tokens += fanout - 1
    return tokens


def _state_explosion(process: Process) -> list[Diagnostic]:
    estimate = _estimated_concurrency(process)
    if estimate < CONCURRENCY_WARN:
        return []
    splits = tuple(
        e.element_id
        for e in process.elements.values()
        if e.element_type
        in (ElementType.PARALLEL_GATEWAY, ElementType.INCLUSIVE_GATEWAY)
        and len(process.outgoing(e.element_id)) > 1
    )
    return [
        diag(
            "PC402",
            f"estimated concurrency of {estimate} tokens: determinizing "
            "the purpose automaton may blow up exponentially in the "
            "number of live positions",
            process_id=process.process_id,
            purpose=process.purpose,
            elements=splits,
            hint="reduce parallel fan-out; past its state budget the "
            "automaton replays a case interpreted instead",
        )
    ]


def _fragile_cycles(process: Process) -> list[Diagnostic]:
    """Cycles kept well-founded by exactly one observable (PC403)."""
    import networkx as nx  # lint-only: kept off the audit and serve paths

    graph = flow_graph(process)
    found: list[Diagnostic] = []
    cycles = islice(nx.simple_cycles(graph), 10_000)
    for cycle in cycles:
        if len(found) >= MAX_FRAGILE_CYCLES:
            break
        task_ids = [
            eid
            for eid in cycle
            if process.elements[eid].element_type is ElementType.TASK
        ]
        cycle_edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        error_edges = [
            edge
            for edge in cycle_edges
            if graph.edges[edge].get("kind") == "error"
        ]
        observables = len(task_ids) + len(error_edges)
        if observables != 1:
            continue
        if task_ids:
            anchor = task_ids[0]
            what = f"task {anchor!r}"
        else:
            anchor = error_edges[0][0]
            what = f"the error edge {error_edges[0][0]!r} -> {error_edges[0][1]!r}"
        found.append(
            diag(
                "PC403",
                "cycle "
                + " -> ".join(cycle)
                + f" is well-founded only by {what}: removing it would "
                "make the process non-well-founded",
                process_id=process.process_id,
                purpose=process.purpose,
                elements=tuple(cycle),
                hint="keep a second observable on the cycle, or gate "
                "model edits with `repro lint`",
            )
        )
    return found
