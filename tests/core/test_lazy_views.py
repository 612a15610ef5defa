"""What the numerical path builds: arcs, states and labels only on demand.

``PepaWorkbench.solve_source`` runs derive → assemble → solve →
throughputs over arc arrays; a :class:`~repro.core.lts.LabelledArc`
list, rendered states and state labels are built on first read, once,
inside an ``lts.render`` span.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.choreographer.workbench import PepaWorkbench
from repro.ctmc.chain import CTMC
from repro.obs import ObsContext, Tracer, use_obs
from repro.pepa.export import model_source
from repro.workloads.scaling import client_server_model


def _solved(n_clients: int = 6):
    return PepaWorkbench().solve_source(model_source(client_server_model(n_clients)))


def test_throughputs_build_no_arcs_states_or_labels():
    analysis = _solved()
    analysis.all_throughputs()
    space, chain = analysis.space, analysis.chain
    assert space.arc_builds == space.state_builds == space.index_builds == 0
    assert chain.label_builds == 0


def test_local_state_probability_renders_labels_once():
    analysis = _solved()
    analysis.all_throughputs()
    first = analysis.probability_of_local_state("Wait")
    again = analysis.probability_of_local_state("Wait")
    assert 0.0 < first == again < 1.0
    assert analysis.chain.label_builds == 1
    assert analysis.space.state_builds == 1
    assert analysis.space.arc_builds == 0
    assert len(analysis.chain.labels) == analysis.n_states


def test_rendering_runs_in_its_own_span_not_in_assembly():
    tracer = Tracer()
    with use_obs(ObsContext(tracer=tracer)):
        analysis = _solved(3)
        names = [s.name for s in tracer.roots]
        assert "lts.render" not in names
        analysis.chain.labels
    (assembly,) = [s for s in tracer.roots if s.name == "ctmc.assemble"]
    assert assembly.children == []
    renders = tracer.roots[len(names):]
    assert [(s.name, s.attributes["what"]) for s in renders] == [
        ("lts.render", "states"), ("lts.render", "labels")]
    assert all(s.attributes["states"] == analysis.n_states for s in renders)


def test_restricted_chain_keeps_labels_lazy():
    calls = []

    def labels():
        calls.append(1)
        return ["a", "b", "c"]

    Q = sp.csr_matrix(np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]))
    chain = CTMC(Q, labels=labels)
    sub = chain.restricted_to(np.array([0, 1]))
    assert calls == [] and chain.label_builds == sub.label_builds == 0
    assert sub.labels == ["a", "b"]
    assert calls == [1] and chain.label_builds == sub.label_builds == 1
