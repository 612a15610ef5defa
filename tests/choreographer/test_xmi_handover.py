"""Figure 4's XMI boxes hand over element trees, checked against the text
route they stand for.

``Choreographer.process_xmi`` parses its input once and serialises its
output once.  The reference below is the text route it replaced, kept
here as a recipe: preprocess to text, read that text into a model,
analyse, write the model to text, then merge the layout of a fresh parse
of the input into a parse of that text.  For every document both must
give the same bytes.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from repro.choreographer import Choreographer
from repro.exceptions import XmiError
from repro.extract.rates import parse_rates
from repro.obs import observe
from repro.scenarios import generate_scenario
from repro.uml.model import UmlModel
from repro.uml.statechart import StateMachine
from repro.uml.xmi import (
    NS_POSEIDON,
    add_synthetic_layout,
    extract_layout,
    postprocess,
    preprocess,
    read_model,
    write_model,
)
from repro.workloads import IM_RATES, build_instant_message_diagram

MODELS = Path(__file__).resolve().parents[2] / "examples" / "models"


# ----------------------------------------------------------------------
# Reference recipe: text between every box
# ----------------------------------------------------------------------
def _strip(element):
    for child in list(element):
        if child.tag.startswith(f"{{{NS_POSEIDON}}}"):
            element.remove(child)
        else:
            _strip(child)


def reference_preprocess(text):
    root = ET.fromstring(text)
    _strip(root)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True)


def outer_diagrams(element):
    """The ``Poseidon:Diagrams`` no other Poseidon element encloses."""
    for child in element:
        if child.tag == f"{{{NS_POSEIDON}}}Diagrams":
            yield child
        elif not child.tag.startswith(f"{{{NS_POSEIDON}}}"):
            yield from outer_diagrams(child)


def reference_layout(text):
    layout = {}
    for diagrams in outer_diagrams(ET.fromstring(text)):
        for block in diagrams:
            idref = block.get("xmi.idref")
            if idref is None:
                raise XmiError("Poseidon layout block without xmi.idref")
            layout[idref] = block
    return layout


def reference_postprocess(reflected_text, original_text):
    reflected = ET.fromstring(reflected_text)
    layout = reference_layout(original_text)
    present = {el.get("xmi.id") for el in reflected.iter() if el.get("xmi.id") is not None}
    diagrams = ET.Element(f"{{{NS_POSEIDON}}}Diagrams")
    for idref, block in sorted(layout.items()):
        if idref in present:
            diagrams.append(block)
    if len(diagrams):
        reflected.append(diagrams)
    ET.indent(reflected)
    return ET.tostring(reflected, encoding="unicode", xml_declaration=True)


def reference_document(platform, text, rates, reset_rate=1.0):
    """A strict ``process_xmi`` over the text route."""
    model = read_model(reference_preprocess(text))
    for graph in model.activity_graphs:
        platform.analyse_activity_diagram(graph, rates, reset_rate=reset_rate)
    if model.state_machines:
        platform.analyse_state_diagrams(model.state_machines, rates)
    return reference_postprocess(write_model(model), text)


# ----------------------------------------------------------------------
# Documents
# ----------------------------------------------------------------------
ODD = "a\nb\tc\rd&e<f\"g>h 'ü ß 日本 €"
ODD_ATTR = "a&#10;b&#9;c&#13;d&amp;e&lt;f&quot;g&gt;h 'ü ß 日本 €"


def base_text() -> str:
    """The instant-message diagram plus a two-state machine, no layout."""
    model = UmlModel(name=ODD)
    graph = build_instant_message_diagram()
    graph.action_by_name("transmit").set_tag("note", ODD)
    model.add_activity_graph(graph)
    machine = StateMachine("Client")
    start = machine.add_initial()
    idle = machine.add_state("Idle")
    busy = machine.add_state("Busy")
    machine.add_transition(start, idle, "")
    machine.add_transition(idle, busy, "request", rate=2.0)
    machine.add_transition(busy, idle, "response", rate=4.0)
    model.add_state_machine(machine)
    return write_model(model)


def ids_of(text: str) -> list[str]:
    return [el.get("xmi.id") for el in ET.fromstring(text).iter()
            if el.get("xmi.id") is not None]


def with_layout(text: str, layout: str, *, before_content: str = "") -> str:
    """``text`` with raw layout XML appended to the document element (and
    optionally inserted in front of ``XMI.content``)."""
    head, tail = text.rsplit("</XMI>", 1)
    head = head.replace("<XMI ", f'<XMI xmlns:Poseidon="{NS_POSEIDON}" ', 1)
    head = head.replace("<XMI.content>", before_content + "<XMI.content>", 1)
    return head + layout + "</XMI>" + tail


def adversarial_documents() -> dict[str, str]:
    base = base_text()
    a, b, c, *_, z = ids_of(base)
    node = '<Poseidon:NodeLayout xmi.idref="{}" x="{}" />'.format
    docs = {
        "no_layout": base,
        "synthetic_layout": add_synthetic_layout(base),
        "whitespace_leaf": with_layout(base, (
            "<Poseidon:Diagrams>"
            f'<Poseidon:NodeLayout xmi.idref="{a}" x="1">  \n\t  </Poseidon:NodeLayout>'
            f'<Poseidon:NodeLayout xmi.idref="{b}" x="2"> </Poseidon:NodeLayout>'
            "</Poseidon:Diagrams>")),
        "layout_text": with_layout(base, (
            "<Poseidon:Diagrams>lead"
            f'<Poseidon:NodeLayout xmi.idref="{a}">label<Poseidon:Point x="1"/>'
            "after</Poseidon:NodeLayout>trail"
            f'<Poseidon:NodeLayout xmi.idref="{b}">  <Poseidon:Point x="2"/>'
            "  </Poseidon:NodeLayout>"
            "</Poseidon:Diagrams>")),
        "escaped_attributes": with_layout(base, (
            "<Poseidon:Diagrams>"
            f'<Poseidon:NodeLayout xmi.idref="{a}" label="{ODD_ATTR}" raw="x\ny\tz" />'
            f'<Poseidon:NodeLayout xmi.idref="{c}" label="&#x1F4F1; &amp;amp;" />'
            "</Poseidon:Diagrams>")),
        "nested_and_duplicate_diagrams": with_layout(base, (
            f"<Poseidon:Diagrams>{node(a, 1)}"
            f'<Poseidon:NodeLayout xmi.idref="{b}" x="2"><Poseidon:Diagrams>'
            f"{node(c, 3)}</Poseidon:Diagrams></Poseidon:NodeLayout>"
            f"</Poseidon:Diagrams><Poseidon:Diagrams>{node(z, 4)}</Poseidon:Diagrams>"),
            before_content=f"<Poseidon:Diagrams>{node(c, 5)}</Poseidon:Diagrams>"),
        "layout_in_header_and_model": with_layout(base, "").replace(
            "<XMI.metamodel ", f"<Poseidon:Diagrams>{node(a, 6)}</Poseidon:Diagrams>"
            "<XMI.metamodel ", 1).replace(
            "</UML:Model>", f"<Poseidon:Diagrams>{node(b, 7)}</Poseidon:Diagrams>"
            "</UML:Model>", 1),
        "duplicate_idrefs": with_layout(base, (
            f"<Poseidon:Diagrams>{node(a, 1)}{node(b, 2)}{node(a, 3)}</Poseidon:Diagrams>"
            f"<Poseidon:Diagrams>{node(b, 4)}</Poseidon:Diagrams>")),
        "layout_for_removed_elements": with_layout(base, (
            f"<Poseidon:Diagrams>{node('gone.1', 1)}{node(a, 2)}{node('', 3)}"
            f"{node('gone.2', 4)}</Poseidon:Diagrams>")),
        "only_removed_elements": with_layout(base, (
            f"<Poseidon:Diagrams>{node('gone.1', 1)}</Poseidon:Diagrams>")),
        "comments_and_pis": "<!-- prolog --><?tool prolog?>" + with_layout(
            base.split("?>", 1)[1].replace(
                "<XMI.content>", "<XMI.content><!-- c --><?pi in content?>", 1),
            ("<!-- before layout --><Poseidon:Diagrams><?pi x?>"
             f"{node(a, 1)}<!-- between -->{node(b, 2)}</Poseidon:Diagrams>"
             "<?pi after?>")),
        "crlf": with_layout(base, (
            f"<Poseidon:Diagrams>\n{node(a, 1)}\n"
            f'<Poseidon:NodeLayout xmi.idref="{b}">\n  \n</Poseidon:NodeLayout>\n'
            "</Poseidon:Diagrams>\n")).replace("\n", "\r\n"),
        "other_prefix": with_layout(base, "").replace(
            "</XMI>", f'<Gent:Diagrams xmlns:Gent="{NS_POSEIDON}">'
            f'<Gent:NodeLayout xmi.idref="{a}" Gent:x="1" /></Gent:Diagrams>'
            '<Poseidon:Diagrams xmlns:Poseidon="urn:not-poseidon">'
            f'<Poseidon:NodeLayout xmi.idref="{b}" /></Poseidon:Diagrams></XMI>'),
    }
    return docs


ADVERSARIAL = adversarial_documents()
RATES = {**IM_RATES, "request": 2.0, "response": 4.0}


def scenario_documents(count: int = 12):
    for seed in range(count):
        scenario = generate_scenario(seed)
        text = scenario.xmi_text()
        if seed % 2:
            text = add_synthetic_layout(text)
        yield f"scenario-{seed}", text, scenario.rates, scenario.spec.reset_rate


@pytest.fixture(scope="module")
def platform():
    return Choreographer()


# ----------------------------------------------------------------------
# Same bytes as the text route
# ----------------------------------------------------------------------
class TestSameBytesAsTextRoute:
    def test_pda_project(self, platform):
        text = (MODELS / "pda_project.xmi").read_text()
        rates = parse_rates((MODELS / "tomcat.rates").read_text())
        document = platform.process_xmi(text, rates).document
        assert document == reference_document(Choreographer(), text, rates)
        assert "Poseidon:NodeLayout" in document

    def test_scenario_corpus(self, platform):
        for key, text, rates, reset_rate in scenario_documents():
            document = platform.process_xmi(text, rates, reset_rate=reset_rate).document
            assert document == reference_document(
                Choreographer(), text, rates, reset_rate), key

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_adversarial_document(self, platform, name):
        text = ADVERSARIAL[name]
        document = platform.process_xmi(text, RATES).document
        assert document == reference_document(Choreographer(), text, RATES)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_text_wrappers(self, name):
        """``preprocess``/``extract_layout``/``postprocess`` still give the
        text route's bytes, and ``Choreographer.read`` its model."""
        text = ADVERSARIAL[name]
        assert preprocess(text) == reference_preprocess(text)
        assert sorted(extract_layout(text)) == sorted(reference_layout(text))
        reflected = write_model(read_model(preprocess(text)))
        assert postprocess(reflected, text) == reference_postprocess(reflected, text)
        assert write_model(Choreographer.read(text)) == reflected

    def test_adversarial_layout_survives(self, platform):
        """The cases above really carry odd layout into the output."""
        doc = platform.process_xmi(ADVERSARIAL["whitespace_leaf"], RATES).document
        assert ">  \n\t  </Poseidon:NodeLayout>" in doc
        doc = platform.process_xmi(ADVERSARIAL["layout_text"], RATES).document
        assert ">label<Poseidon:Point" in doc and "trail" in doc
        doc = platform.process_xmi(ADVERSARIAL["escaped_attributes"], RATES).document
        assert "&#10;" in doc and "&#09;" in doc and "&#13;" in doc and "日本" in doc
        doc = platform.process_xmi(ADVERSARIAL["layout_for_removed_elements"], RATES).document
        assert "gone." not in doc
        doc = platform.process_xmi(ADVERSARIAL["other_prefix"], RATES).document
        assert "not-poseidon" not in doc and "Poseidon:x=" in doc

    def test_nested_diagrams_carried_once(self, platform):
        """A ``Diagrams`` inside a layout block travels inside it, once;
        its blocks do not displace the top-level block for their id."""
        doc = platform.process_xmi(ADVERSARIAL["nested_and_duplicate_diagrams"],
                                   RATES).document
        assert doc.count('x="3"') == 1
        assert doc.count('x="5"') == 1
        nested = doc.index('x="2"')
        assert nested < doc.index('x="3"') < doc.index("</Poseidon:NodeLayout>", nested)


# ----------------------------------------------------------------------
# One parse, one serialisation
# ----------------------------------------------------------------------
def count_xml_calls(monkeypatch, run):
    """``(XMLParser.feed calls, ET.tostring calls)`` made by ``run()``."""
    calls = {"feed": 0, "tostring": 0}
    tostring = ET.tostring

    class CountingParser(ET.XMLParser):
        def feed(self, data):
            calls["feed"] += 1
            return super().feed(data)

    def counting_tostring(*args, **kwargs):
        calls["tostring"] += 1
        return tostring(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(ET, "XMLParser", CountingParser)
        patch.setattr(ET, "tostring", counting_tostring)
        run()
    return calls["feed"], calls["tostring"]


class TestOneParseOneSerialisation:
    def test_process_xmi(self, monkeypatch, platform):
        text = (MODELS / "pda_project.xmi").read_text()
        rates = parse_rates((MODELS / "tomcat.rates").read_text())
        assert count_xml_calls(
            monkeypatch, lambda: platform.process_xmi(text, rates)) == (1, 1)

    def test_counter_sees_the_text_route(self, monkeypatch, platform):
        text = (MODELS / "pda_project.xmi").read_text()
        rates = parse_rates((MODELS / "tomcat.rates").read_text())
        assert count_xml_calls(
            monkeypatch, lambda: reference_document(platform, text, rates)) == (4, 3)

    def test_read_parses_once(self, monkeypatch):
        text = ADVERSARIAL["synthetic_layout"]
        assert count_xml_calls(monkeypatch, lambda: Choreographer.read(text)) == (1, 0)


# ----------------------------------------------------------------------
# A layout block without its idref fails at read time
# ----------------------------------------------------------------------
class TestLayoutWithoutIdref:
    TEXT = with_layout(base_text(), (
        '<Poseidon:Diagrams><Poseidon:NodeLayout x="1" /></Poseidon:Diagrams>'))

    def test_raised_in_read_before_any_diagram(self, platform):
        with observe() as (tracer, _):
            with pytest.raises(XmiError, match="^Poseidon layout block without xmi.idref$"):
                platform.process_xmi(self.TEXT, RATES)
        spans = [s for root in tracer.roots for s in root.iter_spans()]
        read = [s for s in spans if s.name == "pipeline.read"]
        assert len(read) == 1 and read[0].attributes["error"] == "XmiError"
        assert not [s for s in spans if s.name.startswith("diagram.")]

    def test_read_rejects_it_too(self):
        with pytest.raises(XmiError, match="without xmi.idref"):
            Choreographer.read(self.TEXT)

    def test_text_route_failed_only_at_write(self, platform):
        with pytest.raises(XmiError, match="without xmi.idref"):
            reference_document(platform, self.TEXT, RATES)
        read_model(preprocess(self.TEXT))  # the preprocessor alone accepts it
