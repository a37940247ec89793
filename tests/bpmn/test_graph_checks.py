"""The in-repo graph walks agree with networkx, which they replace on the
validate path.

Reachability is a BFS over the flow edges and the well-foundedness
pre-check a DFS for any silent cycle; networkx is imported only to
enumerate silent cycles once the DFS found one.  On random flow graphs
both walks must agree with networkx's own definitions, and the cycle
list must equal the full networkx enumeration.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bpmn.model import (
    Element,
    ElementType,
    ErrorFlow,
    Process,
    SequenceFlow,
)
from repro.bpmn.validate import (
    _has_silent_cycle,
    _reachability_problems,
    flow_graph,
    non_well_founded_cycles,
)

_KINDS = [
    ElementType.START_EVENT,
    ElementType.END_EVENT,
    ElementType.TASK,
    ElementType.TASK,
    ElementType.EXCLUSIVE_GATEWAY,
    ElementType.PARALLEL_GATEWAY,
    ElementType.MESSAGE_THROW_EVENT,
    ElementType.MESSAGE_CATCH_EVENT,
]


@st.composite
def flow_processes(draw) -> Process:
    n = draw(st.integers(min_value=1, max_value=9))
    ids = [f"e{i}" for i in range(n)]
    process = Process("random")
    for eid in ids:
        kind = draw(st.sampled_from(_KINDS))
        message = (
            draw(st.sampled_from(["m1", "m2"]))
            if kind
            in (ElementType.MESSAGE_THROW_EVENT, ElementType.MESSAGE_CATCH_EVENT)
            else None
        )
        process.elements[eid] = Element(eid, kind, "Pool", message=message)
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    for source, target in draw(st.lists(pairs, max_size=3 * n)):
        if source != target:
            process.flows.append(SequenceFlow(source, target))
    for source, target in draw(st.lists(pairs, max_size=n)):
        process.error_flows.append(ErrorFlow(source, target))
    return process


def _networkx_silent_graph(process: Process) -> "nx.DiGraph":
    graph = flow_graph(process)
    silent = nx.DiGraph()
    silent.add_nodes_from(
        eid
        for eid in graph.nodes
        if process.elements[eid].element_type is not ElementType.TASK
    )
    for source, target, data in graph.edges(data=True):
        if data.get("kind") != "error" and source in silent and target in silent:
            silent.add_edge(source, target)
    return silent


@given(flow_processes())
@settings(max_examples=300, deadline=None)
def test_bfs_reachability_matches_networkx_descendants(process):
    graph = flow_graph(process)
    reachable: set[str] = set()
    for start in process.start_events:
        reachable.add(start.element_id)
        reachable |= nx.descendants(graph, start.element_id)
    assert _reachability_problems(process) == [
        f"element {eid!r} is unreachable from any start event"
        for eid in sorted(set(process.elements) - reachable)
    ]


@given(flow_processes())
@settings(max_examples=300, deadline=None)
def test_dfs_silent_cycle_check_matches_networkx(process):
    silent = _networkx_silent_graph(process)
    has_cycle = any(
        len(component) > 1 or silent.has_edge(*(2 * tuple(component)))
        for component in nx.strongly_connected_components(silent)
    )
    assert _has_silent_cycle(process) is has_cycle
    expected = [
        list(cycle)
        for component in nx.strongly_connected_components(silent)
        if len(component) > 1 or silent.has_edge(*(2 * tuple(component)))
        for cycle in nx.simple_cycles(silent.subgraph(component))
    ]
    assert non_well_founded_cycles(process) == expected
