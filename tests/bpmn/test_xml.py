"""Tests for BPMN 2.0 XML interchange."""

import pytest

from repro.bpmn import encode
from repro.bpmn.xml import process_from_bpmn_xml, process_to_bpmn_xml
from repro.core import ComplianceChecker
from repro.errors import ProcessValidationError
from repro.scenarios import (
    clinical_trial_process,
    fig8_process,
    fig9_process,
    fig10_process,
    healthcare_treatment_process,
    paper_audit_trail,
    role_hierarchy,
)

ROUND_TRIP_PROCESSES = [
    fig8_process,
    fig9_process,
    fig10_process,
    clinical_trial_process,
    healthcare_treatment_process,
]


class TestRoundTrip:
    @pytest.mark.parametrize("factory", ROUND_TRIP_PROCESSES)
    def test_structure_preserved(self, factory):
        original = factory()
        rebuilt = process_from_bpmn_xml(process_to_bpmn_xml(original))
        assert set(rebuilt.elements) == set(original.elements)
        assert rebuilt.task_ids == original.task_ids
        assert set(rebuilt.pools) == set(original.pools)
        assert sorted(
            (f.source, f.target) for f in rebuilt.flows
        ) == sorted((f.source, f.target) for f in original.flows)
        assert rebuilt.error_flows == original.error_flows
        for eid, element in original.elements.items():
            assert rebuilt.elements[eid].element_type == element.element_type
            assert rebuilt.elements[eid].join_of == element.join_of

    def test_round_tripped_treatment_process_replays_fig4(self):
        rebuilt = process_from_bpmn_xml(
            process_to_bpmn_xml(healthcare_treatment_process())
        )
        rebuilt.purpose = "treatment"
        checker = ComplianceChecker(encode(rebuilt), role_hierarchy())
        trail = paper_audit_trail()
        assert checker.check(trail.for_case("HT-1")).compliant
        assert not checker.check(trail.for_case("HT-11")).compliant

    def test_export_declares_messages(self):
        document = process_to_bpmn_xml(healthcare_treatment_process())
        assert 'name="referral"' in document
        assert "messageFlow" in document

    def test_export_is_namespaced(self):
        document = process_to_bpmn_xml(fig8_process())
        assert "http://www.omg.org/spec/BPMN/20100524/MODEL" in document


MODELER_STYLE = """<?xml version="1.0" encoding="UTF-8"?>
<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL"
                  id="defs1" targetNamespace="http://example.com/bpmn">
  <bpmn:process id="Process_1" name="approval" isExecutable="false">
    <bpmn:startEvent id="Start_1">
      <bpmn:outgoing>f1</bpmn:outgoing>
    </bpmn:startEvent>
    <bpmn:userTask id="Review" name="Review request">
      <bpmn:incoming>f1</bpmn:incoming>
      <bpmn:outgoing>f2</bpmn:outgoing>
    </bpmn:userTask>
    <bpmn:exclusiveGateway id="Gate_1"/>
    <bpmn:serviceTask id="Approve" name="Approve"/>
    <bpmn:userTask id="Reject" name="Reject"/>
    <bpmn:endEvent id="End_1"/>
    <bpmn:endEvent id="End_2"/>
    <bpmn:sequenceFlow id="f1" sourceRef="Start_1" targetRef="Review"/>
    <bpmn:sequenceFlow id="f2" sourceRef="Review" targetRef="Gate_1"/>
    <bpmn:sequenceFlow id="f3" sourceRef="Gate_1" targetRef="Approve"/>
    <bpmn:sequenceFlow id="f4" sourceRef="Gate_1" targetRef="Reject"/>
    <bpmn:sequenceFlow id="f5" sourceRef="Approve" targetRef="End_1"/>
    <bpmn:sequenceFlow id="f6" sourceRef="Reject" targetRef="End_2"/>
  </bpmn:process>
</bpmn:definitions>
"""


class TestModelerStyleImport:
    def test_single_process_becomes_one_pool(self):
        process = process_from_bpmn_xml(MODELER_STYLE)
        assert process.pools == ["approval"]
        assert process.task_ids == {"Review", "Approve", "Reject"}
        assert process.purpose == "approval"

    def test_task_flavours_accepted(self):
        process = process_from_bpmn_xml(MODELER_STYLE)
        # userTask and serviceTask both became plain tasks
        assert process.element("Review").element_type.value == "task"
        assert process.element("Approve").element_type.value == "task"

    def test_incoming_outgoing_children_ignored(self):
        process = process_from_bpmn_xml(MODELER_STYLE)
        assert len(process.flows) == 6

    def test_imported_process_is_auditable(self):
        from datetime import datetime
        from repro.audit import LogEntry, Status

        process = process_from_bpmn_xml(MODELER_STYLE)
        checker = ComplianceChecker(encode(process))
        entries = [
            LogEntry(
                user="u", role="approval", action="work", obj=None,
                task=task, case="A-1",
                timestamp=datetime(2026, 1, 1, 9, minute),
                status=Status.SUCCESS,
            )
            for minute, task in enumerate(["Review", "Approve"])
        ]
        assert checker.check(entries).compliant
        assert not checker.check(list(reversed(entries))).compliant


class TestErrors:
    def test_invalid_xml(self):
        with pytest.raises(ProcessValidationError):
            process_from_bpmn_xml("<definitions><process>")

    def test_wrong_root(self):
        with pytest.raises(ProcessValidationError):
            process_from_bpmn_xml("<foo/>")

    @pytest.mark.parametrize("encoding", ["no-such-codec", "shift_jis"])
    def test_undecodable_declared_encoding(self, encoding):
        document = f"<?xml version='1.0' encoding='{encoding}'?><definitions/>"
        with pytest.raises(ProcessValidationError, match="invalid BPMN XML"):
            process_from_bpmn_xml(document.encode("ascii"))

    def test_no_process(self):
        with pytest.raises(ProcessValidationError):
            process_from_bpmn_xml(
                f'<definitions xmlns="{"http://www.omg.org/spec/BPMN/20100524/MODEL"}"/>'
            )

    def test_unsupported_element_rejected_not_dropped(self):
        document = MODELER_STYLE.replace(
            '<bpmn:serviceTask id="Approve" name="Approve"/>',
            '<bpmn:subProcess id="Approve" name="Approve"/>',
        )
        with pytest.raises(ProcessValidationError) as excinfo:
            process_from_bpmn_xml(document)
        assert "subProcess" in str(excinfo.value)

    def test_non_error_boundary_rejected(self):
        document = MODELER_STYLE.replace(
            '<bpmn:endEvent id="End_2"/>',
            '<bpmn:endEvent id="End_2"/>'
            '<bpmn:boundaryEvent id="b1" attachedToRef="Review"/>',
        )
        with pytest.raises(ProcessValidationError):
            process_from_bpmn_xml(document)

    def test_ambiguous_inclusive_pairing_rejected(self):
        document = """<?xml version="1.0"?>
        <definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">
          <process id="p" name="p">
            <startEvent id="S"/>
            <inclusiveGateway id="G1"/>
            <task id="A"/><task id="B"/>
            <inclusiveGateway id="G2"/>
            <task id="C"/><task id="D"/>
            <inclusiveGateway id="J1"/>
            <inclusiveGateway id="J2"/>
            <endEvent id="E"/>
            <sequenceFlow id="s0" sourceRef="S" targetRef="G1"/>
            <sequenceFlow id="s1" sourceRef="G1" targetRef="A"/>
            <sequenceFlow id="s2" sourceRef="G1" targetRef="B"/>
            <sequenceFlow id="s3" sourceRef="A" targetRef="G2"/>
            <sequenceFlow id="s3b" sourceRef="B" targetRef="J1"/>
            <sequenceFlow id="s4" sourceRef="G2" targetRef="C"/>
            <sequenceFlow id="s5" sourceRef="G2" targetRef="D"/>
            <sequenceFlow id="s6" sourceRef="C" targetRef="J2"/>
            <sequenceFlow id="s7" sourceRef="D" targetRef="J2"/>
            <sequenceFlow id="s8" sourceRef="J2" targetRef="J1"/>
            <sequenceFlow id="s9" sourceRef="J1" targetRef="E"/>
          </process>
        </definitions>
        """
        with pytest.raises(ProcessValidationError) as excinfo:
            process_from_bpmn_xml(document)
        assert "joinOf" in str(excinfo.value)
