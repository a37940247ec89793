"""Structural validation and the well-foundedness check of Section 5.

:func:`validate` enforces the structural discipline the COWS encoder
relies on; :func:`check_well_founded` implements the diagram-level test
the paper gives for the decidable fragment of Algorithm 1: *a BPMN
process is well-founded if every cycle contains at least one observable
activity* — a task, or an error-handling edge (whose traversal emits the
observable ``sys.Err``).  Processes failing the check would make WeakNext
diverge (a cycle of gateways can spin forever without producing an
observable label), so they are rejected up front, exactly as the paper
suggests ("non well-founded processes can be detected directly on the
diagram describing the process").
"""

from __future__ import annotations

from collections import deque

from repro.bpmn.model import Element, ElementType, Process
from repro.errors import NotWellFoundedError, ProcessValidationError

#: Inclusive splits fan out to every non-empty subset of their branches;
#: beyond this many branches the encoding would explode combinatorially.
MAX_INCLUSIVE_BRANCHES = 5


def validate(process: Process, well_founded: bool = True) -> None:
    """Validate *process*, raising :class:`ProcessValidationError` on failure.

    With ``well_founded=True`` (the default) the well-foundedness check of
    Section 5 runs as well, raising :class:`NotWellFoundedError` — a
    subclass — when a cycle without observable activity exists.
    """
    problems = structural_problems(process)
    if problems:
        summary = "; ".join(problems[:5])
        raise ProcessValidationError(
            f"process {process.process_id!r} is invalid: {summary}", problems
        )
    if well_founded:
        check_well_founded(process)


def structural_problems(process: Process) -> list[str]:
    """All structural problems of *process* (empty list == structurally valid)."""
    problems: list[str] = []
    if not process.elements:
        return ["process has no elements"]

    for flow in process.flows:
        for endpoint_id in (flow.source, flow.target):
            if endpoint_id not in process.elements:
                problems.append(f"flow references unknown element {endpoint_id!r}")
    for error_flow in process.error_flows:
        if error_flow.source not in process.elements:
            problems.append(
                f"error flow references unknown task {error_flow.source!r}"
            )
        elif (
            process.elements[error_flow.source].element_type is not ElementType.TASK
        ):
            problems.append(
                f"error flow source {error_flow.source!r} is not a task"
            )
        if error_flow.target not in process.elements:
            problems.append(
                f"error flow references unknown target {error_flow.target!r}"
            )
    if problems:
        return problems  # flow endpoints must exist before shape checks

    if not process.start_events:
        problems.append("process has no start event")

    for element in process.elements.values():
        problems.extend(_shape_problems(process, element))

    problems.extend(_message_problems(process))
    problems.extend(_inclusive_problems(process))
    problems.extend(_reachability_problems(process))
    return problems


def _shape_problems(process: Process, element: Element) -> list[str]:
    incoming = process.incoming(element.element_id) + [
        error_flow.source
        for error_flow in process.error_flows
        if error_flow.target == element.element_id
    ]
    outgoing = process.outgoing(element.element_id)
    eid = element.element_id
    etype = element.element_type
    problems: list[str] = []

    if etype.is_start:
        if incoming:
            problems.append(f"start event {eid!r} has incoming flows")
        if len(outgoing) != 1:
            problems.append(f"start event {eid!r} must have exactly one outgoing flow")
    elif etype.is_end:
        if outgoing:
            problems.append(f"end event {eid!r} has outgoing flows")
        if not incoming:
            problems.append(f"end event {eid!r} has no incoming flow")
    elif etype is ElementType.TASK:
        if not incoming:
            problems.append(f"task {eid!r} is not reachable by any flow")
        if len(outgoing) != 1:
            problems.append(
                f"task {eid!r} must have exactly one outgoing flow "
                "(use gateways to split)"
            )
    elif etype in (ElementType.MESSAGE_THROW_EVENT, ElementType.MESSAGE_CATCH_EVENT):
        if not incoming:
            problems.append(f"intermediate event {eid!r} has no incoming flow")
        if len(outgoing) != 1:
            problems.append(
                f"intermediate event {eid!r} must have exactly one outgoing flow"
            )
    elif etype is ElementType.EXCLUSIVE_GATEWAY:
        if not incoming or not outgoing:
            problems.append(f"gateway {eid!r} must have incoming and outgoing flows")
    elif etype in (ElementType.PARALLEL_GATEWAY, ElementType.INCLUSIVE_GATEWAY):
        if not incoming or not outgoing:
            problems.append(f"gateway {eid!r} must have incoming and outgoing flows")
        elif len(incoming) > 1 and len(outgoing) > 1:
            problems.append(
                f"gateway {eid!r} mixes split and join; model them separately"
            )
    return problems


def _message_problems(process: Process) -> list[str]:
    problems: list[str] = []
    thrown = {
        e.message: e
        for e in process.elements_of_type(
            ElementType.MESSAGE_END_EVENT, ElementType.MESSAGE_THROW_EVENT
        )
    }
    caught = {
        e.message: e
        for e in process.elements_of_type(
            ElementType.MESSAGE_START_EVENT, ElementType.MESSAGE_CATCH_EVENT
        )
    }
    for message, thrower in thrown.items():
        if message not in caught:
            problems.append(
                f"message {message!r} thrown by {thrower.element_id!r} "
                "has no catching event"
            )
    for message, catcher in caught.items():
        if message not in thrown:
            problems.append(
                f"message {message!r} awaited by {catcher.element_id!r} "
                "is never thrown"
            )
    messages = [
        e.message
        for e in process.elements.values()
        if e.message is not None
        and e.element_type
        in (ElementType.MESSAGE_END_EVENT, ElementType.MESSAGE_THROW_EVENT)
    ]
    if len(messages) != len(set(messages)):
        problems.append("a message name is thrown by more than one event")
    return problems


def _inclusive_problems(process: Process) -> list[str]:
    problems: list[str] = []
    for gateway in process.elements_of_type(ElementType.INCLUSIVE_GATEWAY):
        gid = gateway.element_id
        outgoing = process.outgoing(gid)
        incoming = process.incoming(gid)
        if len(outgoing) > 1:  # a split
            if len(outgoing) > MAX_INCLUSIVE_BRANCHES:
                problems.append(
                    f"inclusive split {gid!r} has {len(outgoing)} branches; "
                    f"at most {MAX_INCLUSIVE_BRANCHES} are supported"
                )
        if len(incoming) > 1:  # a join
            if not gateway.join_of:
                problems.append(
                    f"inclusive join {gid!r} must declare join_of=<split id>"
                )
            elif gateway.join_of not in process.elements:
                problems.append(
                    f"inclusive join {gid!r} pairs unknown split "
                    f"{gateway.join_of!r}"
                )
            elif (
                process.elements[gateway.join_of].element_type
                is not ElementType.INCLUSIVE_GATEWAY
            ):
                problems.append(
                    f"inclusive join {gid!r} pairs {gateway.join_of!r}, "
                    "which is not an inclusive gateway"
                )
    return problems


def _reachability_problems(process: Process) -> list[str]:
    successors: dict[str, list[str]] = {}
    for source, target in _flow_edges(process):
        successors.setdefault(source, []).append(target)
    reachable = {start.element_id for start in process.start_events}
    frontier = deque(reachable)
    while frontier:
        for target in successors.get(frontier.popleft(), ()):
            if target not in reachable:
                reachable.add(target)
                frontier.append(target)
    unreachable = sorted(set(process.elements) - reachable)
    return [f"element {eid!r} is unreachable from any start event" for eid in unreachable]


def _flow_edges(process: Process) -> dict[tuple[str, str], str]:
    """Every ``(source, target)`` link of :func:`flow_graph` with its kind.

    A pair joined by links of several kinds keeps the last one added,
    as the graph's edge attribute does.
    """
    edges: dict[tuple[str, str], str] = {}
    for flow in process.flows:
        edges[flow.source, flow.target] = "sequence"
    for error_flow in process.error_flows:
        edges[error_flow.source, error_flow.target] = "error"
    for thrower, catcher in process.message_links():
        edges[thrower.element_id, catcher.element_id] = "message"
    return edges


def flow_graph(process: Process) -> "nx.DiGraph":
    """The directed graph of token movement: sequence, error and message links."""
    import networkx as nx  # only cycle enumeration and metrics need it

    graph = nx.DiGraph()
    graph.add_nodes_from(process.elements)
    for (source, target), kind in _flow_edges(process).items():
        graph.add_edge(source, target, kind=kind)
    return graph


def check_well_founded(process: Process) -> None:
    """Raise :class:`NotWellFoundedError` if some cycle has no observable activity.

    Observable activity on a cycle means: a task node, or an error edge
    (error handling emits ``sys.Err``, which is in the observable set L of
    Section 3.5).
    """
    offending = non_well_founded_cycles(process)
    if offending:
        example = " -> ".join(offending[0])
        raise NotWellFoundedError(
            f"process {process.process_id!r} is not well-founded: the cycle "
            f"[{example}] contains no task or error handler, so WeakNext "
            "would not terminate on it",
            [f"cycle without observable activity: {cycle}" for cycle in offending],
        )


def non_well_founded_cycles(process: Process) -> list[list[str]]:
    """The elementary cycles of *process* that contain no observable activity.

    A qualifying cycle visits no task node and traverses no error edge,
    so it lives entirely inside the *silent subgraph* — the flow graph
    with task nodes and error edges removed.  Enumerating cycles there
    (and only inside its non-trivial strongly connected components)
    is behavior-identical to scanning every simple cycle of the full
    graph, but skips the combinatorial cycle families that run through
    tasks — the common case in loop-heavy processes, where full
    enumeration is exponential.
    """
    if not _has_silent_cycle(process):
        return []
    import networkx as nx

    graph = flow_graph(process)
    silent = nx.DiGraph()
    silent.add_nodes_from(
        eid
        for eid in graph.nodes
        if process.elements[eid].element_type is not ElementType.TASK
    )
    for source, target, data in graph.edges(data=True):
        if data.get("kind") == "error":
            continue
        if silent.has_node(source) and silent.has_node(target):
            silent.add_edge(source, target)
    offending: list[list[str]] = []
    for component in nx.strongly_connected_components(silent):
        if len(component) == 1:
            node = next(iter(component))
            if not silent.has_edge(node, node):
                continue
        for cycle in nx.simple_cycles(silent.subgraph(component)):
            offending.append(list(cycle))
    return offending


def _has_silent_cycle(process: Process) -> bool:
    """Whether the silent subgraph has any cycle (self-loops included).

    An iterative three-colour DFS: the quick answer for the common,
    well-founded case, so enumerating the cycles (networkx) is only
    paid for processes that have some.
    """
    silent: dict[str, list[str]] = {}
    for (source, target), kind in _flow_edges(process).items():
        if kind == "error" or any(
            process.elements[eid].element_type is ElementType.TASK
            for eid in (source, target)
        ):
            continue
        silent.setdefault(source, []).append(target)
    finished: set[str] = set()
    for root in silent:
        if root in finished:
            continue
        on_path = {root}
        stack = [(root, iter(silent[root]))]
        while stack:
            node, successors = stack[-1]
            for successor in successors:
                if successor in on_path:
                    return True
                if successor not in finished:
                    on_path.add(successor)
                    stack.append((successor, iter(silent.get(successor, ()))))
                    break
            else:
                stack.pop()
                on_path.discard(node)
                finished.add(node)
    return False


def is_well_founded(process: Process) -> bool:
    """Whether *process* is well-founded (no silent cycles)."""
    return not non_well_founded_cycles(process)
