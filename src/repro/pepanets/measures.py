"""Measures over solved PEPA nets.

Adds to the plain-PEPA measures the mobility-specific questions:

* where is a token? — the steady-state probability that some cell at a
  given place is occupied (optionally by a given family);
* throughput of firings (movement events) vs local activities;
* per-place occupancy counts.

The location measures read the space's occupied-cell matrix
(:attr:`~repro.pepanets.semantics.NetStateSpace.occupied`), one numpy
reduction each; none renders a marking.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.ctmcgen import ctmc_from_lts
from repro.core.explore import DEFAULT_MAX_STATES
from repro.ctmc.chain import CTMC
from repro.pepa.measures import Analysis
from repro.resilience.fallback import solve_with_fallback
from repro.pepanets.semantics import NetStateSpace, explore_net
from repro.pepanets.syntax import PepaNet

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids a hard import
    from repro.resilience.budget import ExecutionBudget
    from repro.resilience.fallback import FallbackPolicy

__all__ = ["NetAnalysis", "analyse_net", "ctmc_of_net"]


def ctmc_of_net(
    net: PepaNet, *, max_states: int = DEFAULT_MAX_STATES,
    budget: "ExecutionBudget | None" = None,
) -> tuple[NetStateSpace, CTMC]:
    """Derive the marking space of ``net`` and its CTMC.

    ``budget`` is an optional cooperative
    :class:`~repro.resilience.budget.ExecutionBudget`.
    """
    space = explore_net(net, max_states=max_states, budget=budget)
    return space, ctmc_from_lts(space)


class NetAnalysis(Analysis):
    """A solved PEPA net with measure accessors.

    :meth:`throughput` covers a local activity *or* a firing type —
    firings are activities too, so the same measure applies (this is
    the number the reflector writes on ``<<move>>`` activities).
    """

    def __init__(self, net: PepaNet, space: NetStateSpace, chain: CTMC, pi: np.ndarray,
                 solver: str = "direct", diagnostics=None):
        super().__init__(space, chain, pi, solver, diagnostics)
        self.net = net

    def firing_throughputs(self) -> dict[str, float]:
        """Throughput of the firing (mobility) actions only."""
        return {
            a: v
            for a, v in self.all_throughputs().items()
            if a in self.space.firing_actions
        }

    # ------------------------------------------------------------------
    # Mobility measures
    # ------------------------------------------------------------------
    def _occupied(self, place: str, family: str | None) -> np.ndarray:
        """The occupied-cell columns of the cells at ``place`` (of
        ``family``, if given), one row per marking."""
        if place not in self.net.places:
            raise KeyError(f"unknown place {place!r}")
        columns = [c for c, (at, fam) in enumerate(self.space.cells)
                   if at == place and (family is None or fam == family)]
        return self.space.occupied[:, columns]

    def occupancy(self, place: str, family: str | None = None) -> float:
        """Expected number of occupied cells at ``place`` (of ``family``,
        if given) in steady state."""
        return float(self.pi @ self._occupied(place, family).sum(axis=1, dtype=float))

    def markings_at(self, place: str, family: str | None = None) -> np.ndarray:
        """Indices of the markings with at least one (matching) token
        at ``place``, ascending."""
        return np.flatnonzero(self._occupied(place, family).any(axis=1))

    def probability_at(self, place: str, family: str | None = None) -> float:
        """Probability that at least one (matching) token is at ``place``."""
        return float(self.pi[self.markings_at(place, family)].sum())

    def location_distribution(self, family: str | None = None) -> dict[str, float]:
        """Expected occupied-cell count per place — the steady-state
        'where do tokens live' picture of the mobile system."""
        return {
            place: self.occupancy(place, family) for place in self.net.place_order()
        }

    # ------------------------------------------------------------------
    # Time-dependent mobility measures
    # ------------------------------------------------------------------
    def transient_probability_at(
        self, place: str, t: float, family: str | None = None
    ) -> float:
        """P(at least one matching token is at ``place`` at time ``t``),
        from the net's initial marking — e.g. "has the PDA session
        reached transmitter_2 within 10 seconds?"."""
        return self._transient_mass(self.markings_at(place, family), t)

    def mean_time_to_reach(self, place: str, family: str | None = None) -> float:
        """Expected time until a matching token first occupies
        ``place``, from the initial marking."""
        return self._mean_time_to(
            self.markings_at(place, family),
            f"no reachable marking puts a matching token at {place!r}",
        )


def analyse_net(
    net: PepaNet,
    *,
    solver: "FallbackPolicy | str | None" = None,
    max_states: int = DEFAULT_MAX_STATES,
    reducible: str = "bscc",
    budget: "ExecutionBudget | None" = None,
) -> NetAnalysis:
    """Derive and solve a PEPA net; returns a :class:`NetAnalysis`.

    Mobility models routinely have a transient start-up phase (a token
    transmitted exactly once never comes back), so the reducible policy
    defaults to ``"bscc"``: probability mass settles on the unique
    recurrent class.  Pass ``reducible="error"`` to insist on a fully
    irreducible marking space.

    ``budget`` bounds the marking-space derivation cooperatively;
    ``solver`` is as in :func:`repro.pepa.measures.analyse`.
    """
    space, chain = ctmc_of_net(net, max_states=max_states, budget=budget)
    pi, diagnostics = solve_with_fallback(chain, solver, reducible=reducible)
    return NetAnalysis(net, space, chain, pi, solver=diagnostics.method,
                       diagnostics=diagnostics)
