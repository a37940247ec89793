"""BPMN 2.0 XML interchange (a pragmatic subset).

Reads and writes the OMG BPMN 2.0 XML format for the element subset this
library supports, so processes drawn in standard modelers (Camunda,
Signavio, bpmn.io, ...) can be audited directly:

* ``<collaboration>`` participants become pools; without a
  collaboration, the single ``<process>`` becomes one pool named after
  the process;
* ``task`` (and its ``userTask``/``serviceTask``/``manualTask``/
  ``sendTask``/``receiveTask`` flavours), ``exclusiveGateway``,
  ``parallelGateway``, ``inclusiveGateway``;
* ``startEvent``/``endEvent``/``intermediateThrowEvent``/
  ``intermediateCatchEvent``, message-flavoured via a nested
  ``messageEventDefinition`` (message names resolve through
  ``<message>`` declarations or, failing that, through the
  collaboration's ``<messageFlow>`` links);
* ``boundaryEvent`` with an ``errorEventDefinition`` attached to a task
  becomes the library's error flow (the Fig. 9 pattern);
* inclusive-join pairing: BPMN XML has no join/split pairing attribute,
  so the exporter writes ``repro:joinOf`` in a vendor-extension
  namespace and the importer falls back to *inference* — when the
  process has exactly one inclusive split, every inclusive join pairs
  with it; ambiguous diagrams must carry the attribute.

Everything outside the subset (data objects, subprocesses, timers,
lanes within a pool, conditions on flows) is rejected with a clear
:class:`~repro.errors.ProcessValidationError` rather than silently
dropped — an auditor must know the model it checks is the model that
was drawn.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Optional

from repro.bpmn.model import (
    Element,
    ElementType,
    ErrorFlow,
    Process,
    SequenceFlow,
)
from repro.bpmn.validate import validate
from repro.errors import ProcessValidationError

BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"
REPRO_NS = "https://example.org/repro/bpmn-extensions"

_TASK_TAGS = {
    "task",
    "userTask",
    "serviceTask",
    "manualTask",
    "sendTask",
    "receiveTask",
    "scriptTask",
    "businessRuleTask",
}

_IGNORED_TAGS = {
    # Purely informational content that does not change semantics.
    "documentation",
    "extensionElements",
    "laneSet",
    "incoming",
    "outgoing",
    "text",
    "textAnnotation",
    "association",
    "category",
    "BPMNDiagram",
}


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _q(tag: str) -> str:
    return f"{{{BPMN_NS}}}{tag}"


# ---------------------------------------------------------------------------
# import


def process_from_bpmn_xml(
    document: str | bytes, validated: bool = True
) -> Process:
    """Parse a BPMN 2.0 XML document into a :class:`Process`.

    Bytes are decoded as the document's XML declaration says (UTF-8
    without one); text is taken as it is.
    """
    try:
        root = ET.fromstring(document)
    except (ET.ParseError, LookupError, ValueError) as error:
        # LookupError and ValueError: a declared encoding that is unknown
        # or multi-byte, which the parser refuses.
        raise ProcessValidationError(f"invalid BPMN XML: {error}") from error
    if _local(root.tag) != "definitions":
        raise ProcessValidationError(
            f"expected <definitions> root, found <{_local(root.tag)}>"
        )

    messages = {
        node.get("id"): node.get("name") or node.get("id")
        for node in root
        if _local(node.tag) == "message"
    }
    collaboration = next(
        (n for n in root if _local(n.tag) == "collaboration"), None
    )
    xml_processes = [n for n in root if _local(n.tag) == "process"]
    if not xml_processes:
        raise ProcessValidationError("document contains no <process>")

    pool_of_process: dict[str, str] = {}
    collaboration_id = "collaboration"
    message_flows: list[tuple[str, str]] = []
    if collaboration is not None:
        collaboration_id = collaboration.get("id") or collaboration_id
        for node in collaboration:
            local = _local(node.tag)
            if local == "participant":
                ref = node.get("processRef")
                if ref:
                    pool_of_process[ref] = (
                        node.get("name") or node.get("id") or ref
                    )
            elif local == "messageFlow":
                source, target = node.get("sourceRef"), node.get("targetRef")
                if source and target:
                    message_flows.append((source, target))

    process = Process(process_id=collaboration_id, purpose="")
    builder = _Importer(process, messages, message_flows)
    for xml_process in xml_processes:
        ref = xml_process.get("id") or ""
        pool = pool_of_process.get(
            ref, xml_process.get("name") or ref or "Process"
        )
        builder.import_pool(xml_process, pool)
    builder.resolve_messages()

    if len(xml_processes) == 1 and collaboration is None:
        only = xml_processes[0]
        process.process_id = only.get("id") or "process"
        process.purpose = only.get("name") or process.process_id
    if not process.purpose:
        process.purpose = process.process_id
    if validated:
        validate(process)
    return process


class _Importer:
    def __init__(
        self,
        process: Process,
        messages: dict[str, str],
        message_flows: list[tuple[str, str]],
    ):
        self.process = process
        self.messages = messages
        self.message_flows = message_flows
        #: element id -> message name, filled during the pass; elements
        #: whose message is still unknown get one inferred from flows.
        self.pending_message: list[str] = []
        self.boundary_sources: dict[str, str] = {}  # boundary id -> task id
        self.flows_from_boundary: list[tuple[str, str]] = []

    def _add(self, element: Element) -> None:
        if element.element_id in self.process.elements:
            raise ProcessValidationError(
                f"duplicate element id {element.element_id!r}"
            )
        self.process.elements[element.element_id] = element

    def import_pool(self, xml_process: ET.Element, pool: str) -> None:
        inclusive_splits: list[str] = []
        inclusive_joins: list[str] = []
        for node in xml_process:
            local = _local(node.tag)
            eid = node.get("id") or ""
            name = node.get("name") or ""
            if local in _IGNORED_TAGS:
                continue
            if local == "sequenceFlow":
                source, target = node.get("sourceRef"), node.get("targetRef")
                if not source or not target:
                    raise ProcessValidationError(
                        f"sequenceFlow {eid!r} lacks sourceRef/targetRef"
                    )
                self.flows_from_boundary.append((source, target))
                continue
            if not eid:
                raise ProcessValidationError(
                    f"<{local}> element without an id"
                )
            if local in _TASK_TAGS:
                self._add(Element(eid, ElementType.TASK, pool, name))
            elif local == "exclusiveGateway":
                self._add(Element(eid, ElementType.EXCLUSIVE_GATEWAY, pool, name))
            elif local == "parallelGateway":
                self._add(Element(eid, ElementType.PARALLEL_GATEWAY, pool, name))
            elif local == "inclusiveGateway":
                join_of = node.get(f"{{{REPRO_NS}}}joinOf")
                self._add(
                    Element(
                        eid, ElementType.INCLUSIVE_GATEWAY, pool, name,
                        join_of=join_of,
                    )
                )
            elif local in ("startEvent", "endEvent", "intermediateThrowEvent",
                           "intermediateCatchEvent"):
                self._import_event(node, local, eid, pool, name)
            elif local == "boundaryEvent":
                self._import_boundary(node, eid)
            else:
                raise ProcessValidationError(
                    f"unsupported BPMN element <{local}> ({eid!r})"
                )
        del inclusive_splits, inclusive_joins

    def _message_of(self, node: ET.Element) -> Optional[str]:
        for child in node:
            if _local(child.tag) == "messageEventDefinition":
                ref = child.get("messageRef")
                if ref:
                    return self.messages.get(ref, ref)
                return ""  # message-flavoured, name to be inferred
        return None

    def _import_event(
        self, node: ET.Element, local: str, eid: str, pool: str, name: str
    ) -> None:
        message = self._message_of(node)
        plain_types = {
            "startEvent": ElementType.START_EVENT,
            "endEvent": ElementType.END_EVENT,
        }
        message_types = {
            "startEvent": ElementType.MESSAGE_START_EVENT,
            "endEvent": ElementType.MESSAGE_END_EVENT,
            "intermediateThrowEvent": ElementType.MESSAGE_THROW_EVENT,
            "intermediateCatchEvent": ElementType.MESSAGE_CATCH_EVENT,
        }
        if message is None:
            if local not in plain_types:
                raise ProcessValidationError(
                    f"intermediate event {eid!r} needs a "
                    "messageEventDefinition (only message intermediates "
                    "are supported)"
                )
            self._add(Element(eid, plain_types[local], pool, name))
            return
        placeholder = message or f"__pending_{eid}"
        self._add(
            Element(eid, message_types[local], pool, name, message=placeholder)
        )
        if not message:
            self.pending_message.append(eid)

    def _import_boundary(self, node: ET.Element, eid: str) -> None:
        attached = node.get("attachedToRef")
        if not attached:
            raise ProcessValidationError(
                f"boundaryEvent {eid!r} lacks attachedToRef"
            )
        if not any(
            _local(child.tag) == "errorEventDefinition" for child in node
        ):
            raise ProcessValidationError(
                f"boundaryEvent {eid!r}: only error boundary events are "
                "supported"
            )
        self.boundary_sources[eid] = attached

    def resolve_messages(self) -> None:
        # Sequence flows: a flow leaving an error boundary event becomes
        # an error flow of the attached task.
        for source, target in self.flows_from_boundary:
            if source in self.boundary_sources:
                self.process.error_flows.append(
                    ErrorFlow(self.boundary_sources[source], target)
                )
            else:
                self.process.flows.append(SequenceFlow(source, target))

        # Messages without an explicit <message> reference pair up
        # through the collaboration's messageFlows.
        for flow_index, (source, target) in enumerate(self.message_flows):
            inferred = f"message_{flow_index}"
            for eid in (source, target):
                element = self.process.elements.get(eid)
                if element is None or element.message is None:
                    continue
                if element.message.startswith("__pending_"):
                    self.process.elements[eid] = Element(
                        element.element_id,
                        element.element_type,
                        element.pool,
                        element.name,
                        message=inferred,
                        join_of=element.join_of,
                    )
        unresolved = [
            e.element_id
            for e in self.process.elements.values()
            if e.message is not None and e.message.startswith("__pending_")
        ]
        if unresolved:
            raise ProcessValidationError(
                "message events without resolvable message names: "
                f"{unresolved}"
            )

        # Inclusive-join inference when repro:joinOf is absent.
        self._infer_inclusive_pairing()

    def _infer_inclusive_pairing(self) -> None:
        gateways = self.process.elements_of_type(ElementType.INCLUSIVE_GATEWAY)
        joins = [
            g
            for g in gateways
            if len(self.process.incoming(g.element_id)) > 1 and not g.join_of
        ]
        if not joins:
            return
        splits = [
            g
            for g in gateways
            if len(self.process.outgoing(g.element_id)) > 1
        ]
        if len(splits) != 1 or len(joins) != 1:
            raise ProcessValidationError(
                "cannot infer inclusive split/join pairing; annotate the "
                f"join with repro:joinOf (ns {REPRO_NS})"
            )
        join = joins[0]
        self.process.elements[join.element_id] = Element(
            join.element_id,
            join.element_type,
            join.pool,
            join.name,
            join_of=splits[0].element_id,
        )


# ---------------------------------------------------------------------------
# export


def process_to_bpmn_xml(process: Process) -> str:
    """Serialize *process* as a BPMN 2.0 collaboration document."""
    ET.register_namespace("bpmn", BPMN_NS)
    ET.register_namespace("repro", REPRO_NS)
    definitions = ET.Element(
        _q("definitions"),
        {
            "id": f"defs_{process.process_id}",
            "targetNamespace": REPRO_NS,
        },
    )
    collaboration = ET.SubElement(
        definitions, _q("collaboration"), {"id": process.process_id}
    )

    # message declarations
    message_ids: dict[str, str] = {}
    for element in process.elements.values():
        if element.message and element.message not in message_ids:
            message_ids[element.message] = f"msg_{element.message}"
    for message, message_id in message_ids.items():
        ET.SubElement(
            definitions, _q("message"), {"id": message_id, "name": message}
        )

    for pool_index, pool in enumerate(process.pools):
        process_id = f"proc_{pool_index}"
        ET.SubElement(
            collaboration,
            _q("participant"),
            {"id": f"participant_{pool_index}", "name": pool,
             "processRef": process_id},
        )
        xml_process = ET.SubElement(
            definitions,
            _q("process"),
            {"id": process_id, "name": pool, "isExecutable": "false"},
        )
        _export_pool(process, pool, xml_process, message_ids)

    for index, (thrower, catcher) in enumerate(process.message_links()):
        ET.SubElement(
            collaboration,
            _q("messageFlow"),
            {
                "id": f"mf_{index}",
                "sourceRef": thrower.element_id,
                "targetRef": catcher.element_id,
            },
        )
    ET.indent(definitions)
    return ET.tostring(definitions, encoding="unicode", xml_declaration=True)


_EXPORT_TAGS = {
    ElementType.TASK: "task",
    ElementType.EXCLUSIVE_GATEWAY: "exclusiveGateway",
    ElementType.PARALLEL_GATEWAY: "parallelGateway",
    ElementType.INCLUSIVE_GATEWAY: "inclusiveGateway",
    ElementType.START_EVENT: "startEvent",
    ElementType.MESSAGE_START_EVENT: "startEvent",
    ElementType.END_EVENT: "endEvent",
    ElementType.MESSAGE_END_EVENT: "endEvent",
    ElementType.MESSAGE_THROW_EVENT: "intermediateThrowEvent",
    ElementType.MESSAGE_CATCH_EVENT: "intermediateCatchEvent",
}


def _export_pool(
    process: Process,
    pool: str,
    xml_process: ET.Element,
    message_ids: dict[str, str],
) -> None:
    pool_elements = [
        e for e in process.elements.values() if e.pool == pool
    ]
    element_ids = {e.element_id for e in pool_elements}
    for element in pool_elements:
        attributes = {"id": element.element_id}
        if element.name:
            attributes["name"] = element.name
        if element.join_of:
            attributes[f"{{{REPRO_NS}}}joinOf"] = element.join_of
        node = ET.SubElement(
            xml_process, _q(_EXPORT_TAGS[element.element_type]), attributes
        )
        if element.message:
            ET.SubElement(
                node,
                _q("messageEventDefinition"),
                {"messageRef": message_ids[element.message]},
            )
    flow_index = 0
    for flow in process.flows:
        if flow.source in element_ids:
            ET.SubElement(
                xml_process,
                _q("sequenceFlow"),
                {
                    "id": f"sf_{pool}_{flow_index}",
                    "sourceRef": flow.source,
                    "targetRef": flow.target,
                },
            )
            flow_index += 1
    for error_index, error_flow in enumerate(process.error_flows):
        if error_flow.source not in element_ids:
            continue
        boundary_id = f"boundary_{error_flow.source}_{error_index}"
        boundary = ET.SubElement(
            xml_process,
            _q("boundaryEvent"),
            {"id": boundary_id, "attachedToRef": error_flow.source},
        )
        ET.SubElement(boundary, _q("errorEventDefinition"))
        ET.SubElement(
            xml_process,
            _q("sequenceFlow"),
            {
                "id": f"sf_err_{pool}_{error_index}",
                "sourceRef": boundary_id,
                "targetRef": error_flow.target,
            },
        )
