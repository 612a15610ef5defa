"""Poseidon pre- and postprocessing (paper Figure 4).

Poseidon for UML stores diagram layout in additional XMI elements that
the UML metamodel does not know about, so MDR refuses them.  The
paper's solution is a tool-specific *preprocessor* that removes the
layout before extraction, and a *postprocessor* that merges the layout
of the original project back into the reflected model ("we want to
reuse the layout data of the original model for the reflected UML
model where possible").

Our stand-in Poseidon dialect keeps layout in a ``Poseidon:Diagrams``
sibling of ``XMI.content``: one ``Poseidon:NodeLayout`` per element,
keyed by ``xmi.idref``.  The merge is id-based, so layout survives for
every element still present after reflection and is dropped for
elements that disappeared — the behaviour the paper describes.

Both boxes work on parsed trees, so the pipeline parses a document once
and serialises its result once: :func:`split_layout` is the
preprocessor (it keeps the layout blocks and strips the tree in place)
and :func:`merge_layout` the postprocessor.  The text-level
:func:`preprocess`, :func:`extract_layout` and :func:`postprocess` wrap
them with :func:`~repro.uml.xmi.reader.parse_xmi` and
:func:`~repro.uml.xmi.writer.serialise_xmi`.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.exceptions import XmiError
from repro.uml.xmi.reader import parse_xmi
from repro.uml.xmi.writer import serialise_xmi

__all__ = [
    "NS_POSEIDON",
    "split_layout",
    "merge_layout",
    "preprocess",
    "postprocess",
    "add_synthetic_layout",
    "extract_layout",
]

NS_POSEIDON = "com.gentleware.poseidon"
ET.register_namespace("Poseidon", NS_POSEIDON)


def _is_poseidon(element: ET.Element) -> bool:
    return element.tag.startswith(f"{{{NS_POSEIDON}}}")


def split_layout(root: ET.Element) -> dict[str, ET.Element]:
    """The 'Poseidon preprocessor' box on a parsed document: return its
    layout blocks, keyed by the element id they decorate, then strip
    every Poseidon-specific element in place so the tree conforms to the
    pure UML metamodel.

    Only the ``Poseidon:Diagrams`` outside any other Poseidon element are
    read: a ``Diagrams`` nested in a layout block travels inside it."""
    layout: dict[str, ET.Element] = {}
    for diagrams in _outer_diagrams(root):
        for block in diagrams:
            idref = block.get("xmi.idref")
            if idref is None:
                raise XmiError("Poseidon layout block without xmi.idref")
            layout[idref] = block
    _strip(root)
    return layout


def _outer_diagrams(element: ET.Element):
    """The ``Poseidon:Diagrams`` below ``element`` that no other Poseidon
    element encloses, in document order."""
    for child in element:
        if child.tag == f"{{{NS_POSEIDON}}}Diagrams":
            yield child
        elif not _is_poseidon(child):
            yield from _outer_diagrams(child)


def _strip(element: ET.Element) -> None:
    for child in list(element):
        if _is_poseidon(child):
            element.remove(child)
        else:
            _strip(child)


def merge_layout(reflected: ET.Element, layout: dict[str, ET.Element]) -> None:
    """The 'Poseidon postprocessor' box on a reflected document element:
    append the original project's layout in place.

    Layout blocks whose ``xmi.idref`` no longer resolves are dropped —
    reflection may have removed elements; everything else is carried
    over verbatim so the user's diagram arrangement survives the
    analysis round trip.
    """
    present_ids = {
        el.get("xmi.id")
        for el in reflected.iter()
        if el.get("xmi.id") is not None
    }
    diagrams = ET.Element(f"{{{NS_POSEIDON}}}Diagrams")
    for idref, block in sorted(layout.items()):
        if idref in present_ids:
            diagrams.append(block)
    if len(diagrams):
        reflected.append(diagrams)


def preprocess(text: str) -> str:
    """:func:`split_layout`'s stripping on text: the document without its
    Poseidon-specific elements (the layout blocks are neither kept nor
    checked)."""
    root = parse_xmi(text)
    _strip(root)
    return serialise_xmi(root)


def extract_layout(text: str) -> dict[str, ET.Element]:
    """The layout blocks of a Poseidon document, keyed by the element id
    they decorate (:func:`split_layout` on text)."""
    return split_layout(parse_xmi(text))


def postprocess(reflected_text: str, original_poseidon_text: str) -> str:
    """:func:`merge_layout` on text: the reflected document with the
    original project's layout merged back."""
    reflected = parse_xmi(reflected_text)
    merge_layout(reflected, extract_layout(original_poseidon_text))
    return serialise_xmi(reflected)


def add_synthetic_layout(text: str, *, grid: int = 80) -> str:
    """Decorate a plain XMI document with Poseidon-style layout blocks
    (one per identified element, on a simple grid).

    Used by tests and examples to synthesise realistic Poseidon project
    files, standing in for diagrams drawn by hand in the real tool.
    """
    root = parse_xmi(text)
    diagrams = ET.Element(f"{{{NS_POSEIDON}}}Diagrams")
    x = y = 0
    for el in root.iter():
        xmi_id = el.get("xmi.id")
        if xmi_id is None:
            continue
        block = ET.SubElement(diagrams, f"{{{NS_POSEIDON}}}NodeLayout")
        block.set("xmi.idref", xmi_id)
        block.set("x", str(x))
        block.set("y", str(y))
        block.set("width", "120")
        block.set("height", "40")
        x += grid
        if x > 5 * grid:
            x = 0
            y += grid
    root.append(diagrams)
    return serialise_xmi(root)
