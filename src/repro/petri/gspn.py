"""Stochastic Petri nets: exponential firing delays → CTMC.

The baseline quantitative formalism the paper's PEPA nets improve on:
tokens are identitiless, transitions carry exponential rates, and the
reachability graph *is* the CTMC (marking = state, firing rate = arc
rate).  Single-server firing semantics is the default; infinite-server
(rate scaled by enabling degree) is available per transition, which the
comparison benchmark uses to mimic population effects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ctmcgen import ctmc_from_lts
from repro.core.lts import Lts
from repro.ctmc.chain import CTMC
from repro.exceptions import WellFormednessError
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import ReachabilityGraph, build_reachability_graph

__all__ = ["StochasticPetriNet", "spn_to_ctmc"]


@dataclass
class StochasticPetriNet:
    """A P/T net whose transitions all carry exponential rates."""

    net: PetriNet
    infinite_server: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for name, t in self.net.transitions.items():
            if t.rate is None or t.rate <= 0:
                raise WellFormednessError(
                    f"transition {name!r} needs a positive rate for the "
                    "stochastic interpretation"
                )
        unknown = self.infinite_server - set(self.net.transitions)
        if unknown:
            raise WellFormednessError(f"unknown infinite-server transitions: {sorted(unknown)}")

    def enabling_degree(self, transition_name: str, marking: Marking) -> int:
        """How many times the transition could fire concurrently."""
        t = self.net.transitions[transition_name]
        degree = min(marking[place] // weight for place, weight in t.inputs) if t.inputs else 1
        return max(degree, 0)

    def firing_rate(self, transition_name: str, marking: Marking) -> float:
        """The marking-dependent rate (scaled by enabling degree for infinite-server transitions)."""
        t = self.net.transitions[transition_name]
        assert t.rate is not None
        if transition_name in self.infinite_server:
            return t.rate * self.enabling_degree(transition_name, marking)
        return t.rate


def spn_to_ctmc(
    spn: StochasticPetriNet, *, max_markings: int = 500_000
) -> tuple[ReachabilityGraph, CTMC]:
    """Reachability graph + the derived CTMC of a stochastic net.

    The untimed reachability LTS is re-labelled with marking-dependent
    firing rates and fed through the shared
    :func:`repro.core.ctmcgen.ctmc_from_lts` assembly path.
    """
    graph = build_reachability_graph(spn.net, max_markings=max_markings)
    arcs = graph.arc_arrays
    markings, names = graph.markings, arcs.actions
    rates = [spn.firing_rate(names[a], markings[s])
             for s, a in zip(arcs.source.tolist(), arcs.action.tolist())]
    rated = Lts(markings, arcs._replace(rate=np.array(rates, dtype=np.float64)),
                index=graph.index)
    return graph, ctmc_from_lts(rated)
