"""The Figure-4 chain, called layer by layer from outside the program.

The untraced path drives the program's front doors
(``Choreographer.process_xmi``, ``PepaWorkbench.solve_source``).  The
traced path re-composes the same op from the public call behind each
layer and wraps every call in the benchmark's own :class:`SpanRecorder`.
It never installs ``repro``'s ambient tracer: an enabled tracer makes the
steady-state solver compute an extra residual, so the traced run would
execute a different program.

Both paths end in :func:`xmi_digest` / :func:`pepa_digest`; the harness
fails a traced op whose digest differs from the untraced one, which
keeps the re-composition honest when the program changes underneath it.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager

import numpy as np

from repro.core.ctmcgen import ctmc_from_lts
from repro.ctmc.steady import steady_state
from repro.extract.activity2pepanet import extract_activity_diagram
from repro.extract.statechart2pepa import compose_state_machines
from repro.pepa.ctmcgen import ctmc_from_statespace
from repro.pepa.measures import ModelAnalysis
from repro.pepa.statespace import derive
from repro.pepa.wellformed import assert_well_formed
from repro.pepanets.measures import NetAnalysis
from repro.pepanets.semantics import explore_net
from repro.pepanets.wellformed import assert_net_well_formed
from repro.reflect.activity_reflector import reflect_activity_results, results_of_net_analysis
from repro.reflect.statechart_reflector import (
    reflect_state_probabilities,
    results_of_model_analysis,
)
from repro.uml.xmi.poseidon import postprocess, preprocess
from repro.uml.xmi.reader import read_model
from repro.uml.xmi.writer import write_model

#: Layer spans in chain order; ``run.py`` reports one ``<layer>_s`` each.
LAYERS = (
    "uml.xmi.read", "extract", "pepa.parse", "pepa.derive", "pepanets.derive",
    "ctmc.assemble", "ctmc.irreducible", "ctmc.solve", "measures", "reflect",
    "uml.xmi.write",
)


class SpanRecorder:
    """Wall-clock spans kept in memory: ``(op, layer, start, end)``.

    Every layer span is a child of the op it was recorded under; the
    harness writes them out when a traced run ends.
    """

    def __init__(self):
        self.spans: list[tuple[int, str, float, float]] = []
        self.op = 0

    @contextmanager
    def span(self, layer: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((self.op, layer, start, time.perf_counter()))

    def layer_seconds(self) -> dict[str, float]:
        """Total seconds per layer over every op."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for _, layer, start, end in self.spans:
            totals[layer] += end - start
        return totals


# ----------------------------------------------------------------------
# Output digests (identical for the untraced and the traced path)
# ----------------------------------------------------------------------
def xmi_digest(document: str, tables) -> str:
    """SHA-256 over the annotated document and every result row at full
    precision (the document itself carries only six digits)."""
    h = hashlib.sha256(document.encode())
    for table in tables:
        for row in table:
            h.update(f"|{row.kind}|{row.subject}|{row.measure}|{row.value!r}".encode())
    return h.hexdigest()


def pepa_digest(n_states: int, throughputs: dict[str, float]) -> str:
    doc = [n_states, [[name, repr(throughputs[name])] for name in sorted(throughputs)]]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def analyses_of(result) -> list:
    """Every analysis behind a ``process_xmi`` result, in chain order."""
    return ([o.analysis for o in result.activity_outcomes]
            + [o.analysis for o in result.statechart_outcomes])


# ----------------------------------------------------------------------
# The traced re-composition
# ----------------------------------------------------------------------
def _assemble(rec: SpanRecorder, space, build):
    with rec.span("ctmc.assemble"):
        return build(space)


def _solve(rec: SpanRecorder, chain, reducible: str) -> np.ndarray:
    """``steady_state`` with its irreducibility handling pulled out into
    its own span (it runs before the solver's own span opens)."""
    if chain.n_states <= 1:
        with rec.span("ctmc.solve"):
            return steady_state(chain, reducible=reducible)
    with rec.span("ctmc.irreducible"):
        target, members = chain, None
        if not chain.is_irreducible():
            bsccs = chain.bottom_sccs() if reducible == "bscc" else []
            if len(bsccs) != 1:
                # Let the program raise its own diagnostic.
                return steady_state(chain, reducible=reducible)
            members = bsccs[0]
            target = chain.restricted_to(members)
    with rec.span("ctmc.solve"):
        pi = steady_state(target, check_irreducible=False)
    if members is None:
        return pi
    full = np.zeros(chain.n_states)
    full[members] = pi
    return full


def traced_xmi(rec: SpanRecorder, platform, text: str, rates, reset_rate: float):
    """``Choreographer.process_xmi`` (strict, default settings), one span
    per layer.  Returns ``(document, result tables, analyses)``."""
    with rec.span("uml.xmi.read"):
        model = read_model(preprocess(text))
    tables, analyses = [], []
    for graph in model.activity_graphs:
        with rec.span("extract"):
            extraction = extract_activity_diagram(graph, rates, loop=True,
                                                  reset_rate=reset_rate)
        net = extraction.net
        with rec.span("pepanets.derive"):
            assert_net_well_formed(net)
            space = explore_net(net, max_states=platform.max_states)
        chain = _assemble(rec, space, ctmc_from_lts)
        analysis = NetAnalysis(net, space, chain, _solve(rec, chain, "bscc"))
        with rec.span("measures"):
            table = results_of_net_analysis(extraction, analysis)
        with rec.span("reflect"):
            reflect_activity_results(extraction, table)
        tables.append(table)
        analyses.append(analysis)
    if model.state_machines:
        with rec.span("extract"):
            pepa_model, extractions = compose_state_machines(model.state_machines, rates)
        with rec.span("pepa.parse"):
            assert_well_formed(pepa_model)
        with rec.span("pepa.derive"):
            space = derive(pepa_model, max_states=platform.max_states)
        chain = _assemble(rec, space, ctmc_from_statespace)
        analysis = ModelAnalysis(pepa_model, space, chain, _solve(rec, chain, "error"))
        with rec.span("measures"):
            table = results_of_model_analysis(extractions, analysis)
        with rec.span("reflect"):
            for extraction in extractions:
                reflect_state_probabilities(extraction, table)
        tables.append(table)
        analyses.append(analysis)
    with rec.span("uml.xmi.write"):
        document = postprocess(write_model(model), text)
    return document, tables, analyses


def traced_pepa(rec: SpanRecorder, workbench, source: str):
    """``PepaWorkbench.solve_source`` plus every throughput, one span per
    layer.  Returns ``(analysis, throughputs)``."""
    with rec.span("pepa.parse"):
        model = workbench.parse(source)
        assert_well_formed(model)  # PepaWorkbench.solve checks again
    with rec.span("pepa.derive"):
        space = derive(model, max_states=workbench.max_states)
    chain = _assemble(rec, space, ctmc_from_statespace)
    analysis = ModelAnalysis(model, space, chain, _solve(rec, chain, workbench.reducible))
    with rec.span("measures"):
        throughputs = analysis.all_throughputs()
    return analysis, throughputs
