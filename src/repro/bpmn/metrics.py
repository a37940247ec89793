"""Structural metrics of BPMN processes.

Quantifies the shape factors that drive Algorithm 1's cost (discussed
qualitatively in Section 7 of the paper): size, branching, cycles, and
the *observable density* that well-foundedness is about — how much of
the process's control flow is visible in audit trails.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from repro.bpmn.model import ElementType, Process
from repro.bpmn.validate import flow_graph

#: Cycle enumeration is exponential in the worst case; past this many
#: cycles :func:`measure` stops counting and reports ``>= MAX_CYCLES``.
MAX_CYCLES = 1000


@dataclass(frozen=True)
class ProcessMetrics:
    """A structural profile of one process."""

    process_id: str
    elements: int
    tasks: int
    pools: int
    gateways: int
    exclusive_gateways: int
    parallel_gateways: int
    inclusive_gateways: int
    sequence_flows: int
    message_links: int
    error_flows: int
    cycles: int
    max_split_fanout: int
    observable_density: float  # tasks / elements
    depth: int  # longest acyclic path from a start event
    cycles_capped: bool = False  # enumeration stopped at the cap

    def as_rows(self) -> list[tuple[str, object]]:
        """(name, value) rows for table rendering."""
        return [
            ("elements", self.elements),
            ("tasks", self.tasks),
            ("pools", self.pools),
            ("gateways", self.gateways),
            ("  exclusive", self.exclusive_gateways),
            ("  parallel", self.parallel_gateways),
            ("  inclusive", self.inclusive_gateways),
            ("sequence flows", self.sequence_flows),
            ("message links", self.message_links),
            ("error flows", self.error_flows),
            ("cycles", f">= {self.cycles}" if self.cycles_capped else self.cycles),
            ("max split fan-out", self.max_split_fanout),
            ("observable density", round(self.observable_density, 3)),
            ("depth", self.depth),
        ]


def measure(process: Process, max_cycles: int = MAX_CYCLES) -> ProcessMetrics:
    """Compute the structural metrics of *process*.

    Cycle counting stops after *max_cycles* (the count is then a lower
    bound, flagged by ``cycles_capped``) so metrics never hang on
    cycle-dense graphs.
    """
    import networkx as nx  # cycle enumeration; kept off the audit path

    graph = flow_graph(process)
    gateways = process.elements_of_type(
        ElementType.EXCLUSIVE_GATEWAY,
        ElementType.PARALLEL_GATEWAY,
        ElementType.INCLUSIVE_GATEWAY,
    )
    cycle_count = sum(1 for _ in islice(nx.simple_cycles(graph), max_cycles))
    cycles_capped = cycle_count >= max_cycles
    fanout = max(
        (len(process.outgoing(e.element_id)) for e in process.elements.values()),
        default=0,
    )
    return ProcessMetrics(
        process_id=process.process_id,
        elements=len(process),
        tasks=len(process.task_ids),
        pools=len(process.pools),
        gateways=len(gateways),
        exclusive_gateways=len(
            process.elements_of_type(ElementType.EXCLUSIVE_GATEWAY)
        ),
        parallel_gateways=len(
            process.elements_of_type(ElementType.PARALLEL_GATEWAY)
        ),
        inclusive_gateways=len(
            process.elements_of_type(ElementType.INCLUSIVE_GATEWAY)
        ),
        sequence_flows=len(process.flows),
        message_links=sum(1 for _ in process.message_links()),
        error_flows=len(process.error_flows),
        cycles=cycle_count,
        cycles_capped=cycles_capped,
        max_split_fanout=fanout,
        observable_density=(
            len(process.task_ids) / len(process) if len(process) else 0.0
        ),
        depth=_depth(process, graph),
    )


def _depth(process: Process, graph: "nx.DiGraph") -> int:
    """Longest acyclic path (in edges) from any start event."""
    import networkx as nx

    condensed = nx.condensation(graph)
    member_of = condensed.graph["mapping"]
    weights: dict[int, int] = {
        node: len(condensed.nodes[node]["members"])
        for node in condensed.nodes
    }
    best = 0
    starts = {member_of[s.element_id] for s in process.start_events}
    memo: dict[int, int] = {}

    def longest_from(node: int) -> int:
        if node in memo:
            return memo[node]
        result = weights[node]
        for successor in condensed.successors(node):
            result = max(result, weights[node] + longest_from(successor))
        memo[node] = result
        return result

    for start in starts:
        best = max(best, longest_from(start))
    return max(best - 1, 0)  # edges, not nodes
