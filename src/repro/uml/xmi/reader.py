"""XMI import: XMI document → MDR extent → UmlModel.

:func:`parse_xmi` is the one parse of a document; :func:`xmi_to_mdr`
reads the parsed tree, and the text-level :func:`xml_to_mdr` and
:func:`read_model` wrap the two.

The reader is strict about what the metamodel allows — any element not
in the UML 1.4 subset is an :class:`XmiError` (which is why the
Poseidon preprocessor must strip tool-specific elements *before* MDR
import, exactly as in the paper's Figure 4 pipeline).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.exceptions import XmiError
from repro.uml.activity import ActivityEdge, ActivityGraph, ActivityNode
from repro.uml.model import UmlElement, UmlModel
from repro.uml.statechart import State, StateMachine, StateTransition
from repro.uml.xmi.mdr import UML14_METAMODEL, MdrObject, Repository
from repro.uml.xmi.writer import NS_UML

__all__ = ["parse_xmi", "xmi_to_mdr", "xml_to_mdr", "mdr_to_model", "read_model"]


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _is_uml(element: ET.Element) -> bool:
    return element.tag.startswith(f"{{{NS_UML}}}")


def parse_xmi(text: str) -> ET.Element:
    """Parse XMI text into its document element."""
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmiError(f"not well-formed XML: {exc}") from exc


def xmi_to_mdr(xmi: ET.Element, repository: Repository | None = None) -> MdrObject:
    """Read a parsed XMI document into a repository extent; returns the
    Model root."""
    if _local(xmi.tag) != "XMI":
        raise XmiError(f"root element is {xmi.tag!r}, expected XMI")
    header = xmi.find("XMI.header/XMI.metamodel")
    if header is not None:
        declared = (header.get("xmi.name"), header.get("xmi.version"))
        if declared != ("UML", "1.4"):
            raise XmiError(
                f"document declares metamodel {declared[0]} {declared[1]}; "
                "this reader implements UML 1.4"
            )
    content = xmi.find("XMI.content")
    if content is None:
        raise XmiError("document has no XMI.content")
    models = [el for el in content if _is_uml(el) and _local(el.tag) == "Model"]
    if len(models) != 1:
        raise XmiError(f"XMI.content holds {len(models)} UML:Model elements; expected 1")
    foreign = [el for el in content if not _is_uml(el)]
    if foreign:
        raise XmiError(
            f"tool-specific element {foreign[0].tag!r} inside XMI.content; "
            "run the Poseidon preprocessor first"
        )

    repo = repository or Repository()
    repo.import_metamodel(UML14_METAMODEL)
    extent = "import"
    if extent not in repo.extents:
        repo.create_extent(extent)
    root = _element_to_mdr(models[0], repo, extent)
    root.validate()
    return root


def xml_to_mdr(text: str, repository: Repository | None = None) -> MdrObject:
    """Parse XMI text into a repository extent; returns the Model root."""
    return xmi_to_mdr(parse_xmi(text), repository)


def _element_to_mdr(element: ET.Element, repo: Repository, extent: str | None) -> MdrObject:
    if not _is_uml(element):
        raise XmiError(
            f"non-UML element {element.tag!r} inside the model; "
            "run the Poseidon preprocessor first"
        )
    obj = repo.instantiate(_local(element.tag), extent)
    for key, value in element.attrib.items():
        obj.set(key, value)  # validates against the metamodel
    for child in element:
        obj.add_child(_element_to_mdr(child, repo, None))
    return obj


# ----------------------------------------------------------------------
# MDR -> typed model
# ----------------------------------------------------------------------
def _read_annotations(obj: MdrObject, element: UmlElement) -> None:
    for st in obj.children_of("Stereotype"):
        element.add_stereotype(st.require("name"))
    for tv in obj.children_of("TaggedValue"):
        element.set_tag(tv.require("tag"), tv.require("value"))


_KIND_OF_PSEUDO = {
    "initial": "initial",
    "junction": "decision",
    "choice": "decision",
    "fork": "fork",
    "join": "join",
}


def mdr_to_model(root: MdrObject) -> UmlModel:
    """Bind a repository Model instance to the typed UML classes."""
    if root.metaclass_name != "Model":
        raise XmiError(f"expected a Model instance, got {root.metaclass_name}")
    model = UmlModel(name=root.get("name") or "", xmi_id=root.require("xmi.id"))
    _read_annotations(root, model)
    for g in root.children_of("ActivityGraph"):
        model.add_activity_graph(_mdr_to_graph(g))
    for m in root.children_of("StateMachine"):
        model.add_state_machine(_mdr_to_machine(m))
    return model


def _mdr_to_graph(g: MdrObject) -> ActivityGraph:
    graph = ActivityGraph(g.get("name") or g.require("xmi.id"))
    graph.xmi_id = g.require("xmi.id")
    for obj in g.children:
        cls = obj.metaclass_name
        if cls == "Transition":
            continue
        if cls == "ActionState":
            node = ActivityNode(name=obj.get("name") or "", xmi_id=obj.require("xmi.id"),
                                kind="action")
        elif cls == "ObjectFlowState":
            node = ActivityNode(name=obj.get("name") or "", xmi_id=obj.require("xmi.id"),
                                kind="object")
        elif cls == "FinalState":
            node = ActivityNode(name=obj.get("name") or "", xmi_id=obj.require("xmi.id"),
                                kind="final")
        elif cls == "Pseudostate":
            kind = _KIND_OF_PSEUDO.get(obj.require("kind"))
            if kind is None:
                raise XmiError(
                    f"pseudostate kind {obj.require('kind')!r} is outside the "
                    "extractor's supported subset"
                )
            node = ActivityNode(name=obj.get("name") or "", xmi_id=obj.require("xmi.id"),
                                kind=kind)
        else:  # TaggedValue / Stereotype at graph level: ignore quietly
            continue
        if cls != "FinalState":
            _read_annotations(obj, node)
        graph._add(node)
    for obj in g.children_of("Transition"):
        edge = ActivityEdge(
            xmi_id=obj.require("xmi.id"),
            source=obj.require("source"),
            target=obj.require("target"),
            guard=obj.get("guard"),
        )
        for ref in (edge.source, edge.target):
            if ref not in graph.nodes:
                raise XmiError(f"transition {edge.xmi_id!r} references unknown node {ref!r}")
        graph.edges.append(edge)
    return graph


def _mdr_to_machine(m: MdrObject) -> StateMachine:
    machine = StateMachine(m.get("name") or m.require("xmi.id"),
                           context_class=m.get("context") or "")
    machine.xmi_id = m.require("xmi.id")
    for obj in m.children:
        cls = obj.metaclass_name
        if cls == "SimpleState":
            state = State(name=obj.get("name") or "", xmi_id=obj.require("xmi.id"),
                          kind="simple")
            _read_annotations(obj, state)
            machine.states[state.xmi_id] = state
        elif cls == "Pseudostate":
            if obj.require("kind") != "initial":
                raise XmiError(
                    f"state machines support only initial pseudostates, got "
                    f"{obj.require('kind')!r}"
                )
            state = State(name=obj.get("name") or "", xmi_id=obj.require("xmi.id"),
                          kind="initial")
            machine.states[state.xmi_id] = state
    for obj in m.children_of("Transition"):
        tr = StateTransition(
            xmi_id=obj.require("xmi.id"),
            source=obj.require("source"),
            target=obj.require("target"),
            trigger=obj.get("trigger") or "",
        )
        for ref in (tr.source, tr.target):
            if ref not in machine.states:
                raise XmiError(f"transition {tr.xmi_id!r} references unknown state {ref!r}")
        _read_annotations(obj, tr)
        machine.transitions.append(tr)
    return machine


def read_model(text: str) -> UmlModel:
    """One-shot: XMI text → typed model (through the repository)."""
    return mdr_to_model(xml_to_mdr(text))
