"""XMI export: UmlModel → MDR extent → XMI document.

The document shape follows XMI 1.2 conventions (header naming the
metamodel, content carrying the model) with the UML namespace on every
model element.  Layout information is *not* written here — that is the
Poseidon layer's business (:mod:`repro.uml.xmi.poseidon`), mirroring
the paper's separation of structure from diagram data.

:func:`mdr_to_xmi` builds the document element and
:func:`serialise_xmi` is the one serialisation of a document; the
text-level :func:`mdr_to_xml` and :func:`write_model` wrap the two.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

from repro.exceptions import XmiError
from repro.uml.activity import ActivityGraph
from repro.uml.model import UmlElement, UmlModel
from repro.uml.statechart import StateMachine
from repro.uml.xmi.mdr import UML14_METAMODEL, MdrObject, Repository

__all__ = ["NS_UML", "model_to_mdr", "mdr_to_xmi", "serialise_xmi", "mdr_to_xml", "write_model"]

NS_UML = "org.omg.xmi.namespace.UML"
ET.register_namespace("UML", NS_UML)


def _q(name: str) -> str:
    return f"{{{NS_UML}}}{name}"


# ----------------------------------------------------------------------
# UmlModel -> MDR
# ----------------------------------------------------------------------
def model_to_mdr(model: UmlModel, repository: Repository | None = None) -> MdrObject:
    """Populate a repository extent from a typed model and return the
    root Model instance."""
    repo = repository or Repository()
    repo.import_metamodel(UML14_METAMODEL)
    extent_name = f"export:{model.name or model.xmi_id}"
    if extent_name not in repo.extents:
        repo.create_extent(extent_name)
    root = repo.instantiate("Model", extent_name)
    root.set("xmi.id", model.xmi_id)
    root.set("name", model.name)
    _write_annotations(repo, root, model)
    for graph in model.activity_graphs:
        root.add_child(_graph_to_mdr(repo, graph))
    for machine in model.state_machines:
        root.add_child(_machine_to_mdr(repo, machine))
    root.validate()
    return root


def _write_annotations(repo: Repository, obj: MdrObject, element: UmlElement) -> None:
    for stereotype in sorted(element.stereotypes):
        child = repo.instantiate("Stereotype")
        child.set("name", stereotype)
        obj.add_child(child)
    for tag, value in sorted(element.tagged_values.items()):
        child = repo.instantiate("TaggedValue")
        child.set("tag", tag)
        child.set("value", value)
        obj.add_child(child)


_NODE_CLASS = {
    "initial": "Pseudostate",
    "decision": "Pseudostate",
    "fork": "Pseudostate",
    "join": "Pseudostate",
    "final": "FinalState",
    "action": "ActionState",
    "object": "ObjectFlowState",
}
_PSEUDO_KIND = {"initial": "initial", "decision": "junction", "fork": "fork", "join": "join"}


def _graph_to_mdr(repo: Repository, graph: ActivityGraph) -> MdrObject:
    g = repo.instantiate("ActivityGraph")
    g.set("xmi.id", graph.xmi_id)
    g.set("name", graph.name)
    for node in graph.nodes.values():
        cls = _NODE_CLASS[node.kind]
        o = repo.instantiate(cls)
        o.set("xmi.id", node.xmi_id)
        if node.name:
            o.set("name", node.name)
        if cls == "Pseudostate":
            o.set("kind", _PSEUDO_KIND[node.kind])
        if cls != "FinalState":
            _write_annotations(repo, o, node)
        g.add_child(o)
    for edge in graph.edges:
        t = repo.instantiate("Transition")
        t.set("xmi.id", edge.xmi_id)
        t.set("source", edge.source)
        t.set("target", edge.target)
        if edge.guard:
            t.set("guard", edge.guard)
        g.add_child(t)
    return g


def _machine_to_mdr(repo: Repository, machine: StateMachine) -> MdrObject:
    m = repo.instantiate("StateMachine")
    m.set("xmi.id", machine.xmi_id)
    m.set("name", machine.name)
    m.set("context", machine.context_class)
    for state in machine.states.values():
        if state.kind == "initial":
            o = repo.instantiate("Pseudostate")
            o.set("kind", "initial")
        else:
            o = repo.instantiate("SimpleState")
        o.set("xmi.id", state.xmi_id)
        if state.name:
            o.set("name", state.name)
        if o.metaclass_name == "SimpleState":
            _write_annotations(repo, o, state)
        m.add_child(o)
    for tr in machine.transitions:
        t = repo.instantiate("Transition")
        t.set("xmi.id", tr.xmi_id)
        t.set("source", tr.source)
        t.set("target", tr.target)
        if tr.trigger:
            t.set("trigger", tr.trigger)
        for tag, value in sorted(tr.tagged_values.items()):
            tv = repo.instantiate("TaggedValue")
            tv.set("tag", tag)
            tv.set("value", value)
            t.add_child(tv)
        m.add_child(t)
    return m


# ----------------------------------------------------------------------
# MDR -> XML text
# ----------------------------------------------------------------------
_ATTRS = {
    "Model": ("xmi.id", "name"),
    "ActivityGraph": ("xmi.id", "name"),
    "StateMachine": ("xmi.id", "name", "context"),
    "ActionState": ("xmi.id", "name"),
    "SimpleState": ("xmi.id", "name"),
    "Pseudostate": ("xmi.id", "name", "kind"),
    "FinalState": ("xmi.id", "name"),
    "ObjectFlowState": ("xmi.id", "name"),
    "Transition": ("xmi.id", "name", "source", "target", "trigger", "guard"),
    "TaggedValue": ("tag", "value"),
    "Stereotype": ("name",),
}


# XML 1.0 cannot represent C0 control characters (other than tab, LF,
# CR); writing them would produce a document no parser accepts, so the
# writer fails fast instead.
_XML_ILLEGAL = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f]")


def _mdr_to_element(obj: MdrObject) -> ET.Element:
    el = ET.Element(_q(obj.metaclass_name))
    for attr in _ATTRS[obj.metaclass_name]:
        value = obj.get(attr)
        if value is not None and value != "":
            if _XML_ILLEGAL.search(value):
                raise XmiError(
                    f"{obj.metaclass_name}.{attr} contains a control character "
                    "that XML 1.0 cannot represent"
                )
            el.set(attr, value)
    for child in obj.children:
        el.append(_mdr_to_element(child))
    return el


def mdr_to_xmi(root: MdrObject, metamodel_name: str = "UML",
               metamodel_version: str = "1.4") -> ET.Element:
    """An MDR Model instance as an XMI document element."""
    xmi = ET.Element("XMI", {"xmi.version": "1.2"})
    header = ET.SubElement(xmi, "XMI.header")
    ET.SubElement(
        header,
        "XMI.metamodel",
        {"xmi.name": metamodel_name, "xmi.version": metamodel_version},
    )
    content = ET.SubElement(xmi, "XMI.content")
    content.append(_mdr_to_element(root))
    return xmi


def serialise_xmi(xmi: ET.Element) -> str:
    """Indent an XMI document element in place and serialise it."""
    ET.indent(xmi)
    return ET.tostring(xmi, encoding="unicode", xml_declaration=True)


def mdr_to_xml(root: MdrObject, metamodel_name: str = "UML", metamodel_version: str = "1.4") -> str:
    """Serialise an MDR Model instance as an XMI document string."""
    return serialise_xmi(mdr_to_xmi(root, metamodel_name, metamodel_version))


def write_model(model: UmlModel) -> str:
    """One-shot: typed model → XMI text (through the repository)."""
    return mdr_to_xml(model_to_mdr(model))
