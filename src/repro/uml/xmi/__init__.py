"""XMI interchange, Poseidon pre/post-processing and the metadata
repository (paper substrate S6, Figure 4's connector boxes)."""

from repro.uml.xmi.mdr import (
    UML14_METAMODEL,
    MdrObject,
    MetaAttribute,
    MetaClass,
    Metamodel,
    Repository,
)
from repro.uml.xmi.poseidon import (
    NS_POSEIDON,
    add_synthetic_layout,
    extract_layout,
    merge_layout,
    postprocess,
    preprocess,
    split_layout,
)
from repro.uml.xmi.reader import mdr_to_model, parse_xmi, read_model, xmi_to_mdr, xml_to_mdr
from repro.uml.xmi.writer import (
    NS_UML,
    mdr_to_xmi,
    mdr_to_xml,
    model_to_mdr,
    serialise_xmi,
    write_model,
)

__all__ = [
    "Repository",
    "Metamodel",
    "MetaClass",
    "MetaAttribute",
    "MdrObject",
    "UML14_METAMODEL",
    "read_model",
    "write_model",
    "parse_xmi",
    "xmi_to_mdr",
    "xml_to_mdr",
    "mdr_to_model",
    "model_to_mdr",
    "mdr_to_xmi",
    "mdr_to_xml",
    "serialise_xmi",
    "NS_UML",
    "NS_POSEIDON",
    "preprocess",
    "postprocess",
    "add_synthetic_layout",
    "extract_layout",
    "split_layout",
    "merge_layout",
]
