"""Model-level performance measures for plain PEPA models.

Thin convenience layer tying the PEPA pipeline together: parse/derive
once, then ask for throughputs, local-state probabilities and
utilisations by *component-local state name* rather than raw CTMC state
index — the vocabulary a modeller (and the reflector) uses.
:class:`Analysis` holds the accessors a solved PEPA net shares
(:class:`~repro.pepanets.measures.NetAnalysis` extends it).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

import numpy as np

from repro.ctmc import rewards
from repro.ctmc.chain import CTMC
from repro.exceptions import SolverError
from repro.resilience.fallback import solve_with_fallback
from repro.pepa.ctmcgen import ctmc_from_statespace
from repro.pepa.environment import PepaModel
from repro.pepa.statespace import DEFAULT_MAX_STATES, StateSpace, derive

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids a hard import
    from repro.resilience.budget import ExecutionBudget
    from repro.resilience.fallback import FallbackPolicy

__all__ = ["Analysis", "ModelAnalysis", "analyse"]


class Analysis:
    """A solved chain with the accessors every formalism shares.

    The heavy work (derivation + steady state) happens once, in
    :func:`analyse` or :func:`~repro.pepanets.measures.analyse_net`;
    every accessor is then a cheap dot product.  ``space`` is the
    derived state space, ``chain`` its CTMC, ``pi`` the steady state
    and ``solver`` the method that produced it.
    """

    def __init__(self, space, chain: CTMC, pi: np.ndarray, solver: str = "direct",
                 diagnostics=None):
        self.space = space
        self.chain = chain
        self.pi = pi
        self.solver = solver
        #: The :class:`~repro.resilience.fallback.SolveDiagnostics` of the
        #: solve: winning method, every attempt, the residual.
        self.diagnostics = diagnostics

    @property
    def n_states(self) -> int:
        return self.chain.n_states

    def throughput(self, action: str) -> float:
        """Completions of ``action`` per time unit in steady state."""
        return rewards.throughput(self.chain, action, self.pi)

    def all_throughputs(self) -> dict[str, float]:
        """Throughput of every action type, keyed by name."""
        return rewards.all_throughputs(self.chain, self.pi)

    def probability_of_local_state(self, name: str) -> float:
        """Total probability of global states in which some component is
        currently in local state ``name``.

        Matches ``name`` as a whole identifier inside the state label,
        so ``File`` does not match ``FileReader``.
        """
        pattern = rf"\b{re.escape(name)}\b"
        return rewards.probability_by_label(self.chain, pattern, self.pi, regex=True)

    # ------------------------------------------------------------------
    # Time-dependent measures over a set of state indices
    # ------------------------------------------------------------------
    def _transient_mass(self, states, t: float) -> float:
        """Probability mass on ``states`` at time ``t``, from the
        initial state."""
        from repro.ctmc.transient import transient_distribution

        dist = transient_distribution(self.chain, t, self.chain.initial)
        return float(dist[states].sum())

    def _mean_time_to(self, states, missing: str) -> float:
        """Expected time until the chain first enters ``states``, from
        the initial state; ``missing`` is the error when there are none."""
        from repro.ctmc.passage import mean_passage_time

        if len(states) == 0:
            raise SolverError(missing)
        return mean_passage_time(self.chain, self.chain.initial, states)


class ModelAnalysis(Analysis):
    """A solved PEPA model with measure accessors, by *component-local
    state name* rather than raw CTMC state index."""

    def __init__(self, model: PepaModel, space: StateSpace, chain: CTMC, pi: np.ndarray,
                 solver: str = "direct", diagnostics=None):
        super().__init__(space, chain, pi, solver, diagnostics)
        self.model = model

    def utilisation(self, predicate) -> float:
        """Probability mass of states satisfying ``predicate(index, label)``."""
        return rewards.utilisation(self.chain, predicate, self.pi)

    def state_probabilities(self) -> list[tuple[str, float]]:
        """(label, probability) for every global state, model order."""
        return [(self.chain.labels[i], float(self.pi[i])) for i in range(self.n_states)]

    def _states_with_local(self, name: str) -> list[int]:
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        return [i for i, lbl in enumerate(self.chain.labels) if pattern.search(lbl)]

    def transient_probability_of_local_state(self, name: str, t: float) -> float:
        """P(some component is in local state ``name`` at time ``t``),
        starting from the model's initial state."""
        return self._transient_mass(self._states_with_local(name), t)

    def mean_time_to_local_state(self, name: str) -> float:
        """Expected time until some component first enters local state
        ``name``, from the initial state."""
        return self._mean_time_to(self._states_with_local(name),
                                  f"no state mentions local state {name!r}")


def analyse(
    model: PepaModel,
    *,
    solver: "FallbackPolicy | str | None" = None,
    max_states: int = DEFAULT_MAX_STATES,
    reducible: str = "error",
    budget: "ExecutionBudget | None" = None,
) -> ModelAnalysis:
    """Derive and solve ``model``; returns a :class:`ModelAnalysis`.

    ``reducible="bscc"`` permits models with a transient start-up phase
    (see :func:`repro.resilience.fallback.solve_with_fallback`).
    ``budget`` is an optional
    :class:`~repro.resilience.budget.ExecutionBudget` bounding the
    derivation.  ``solver`` is a method name, a comma-separated fallback
    chain or a :class:`~repro.resilience.fallback.FallbackPolicy`; the
    returned analysis carries the solve's diagnostics, and its
    ``solver`` names the method that produced the answer.
    """
    space = derive(model, max_states=max_states, budget=budget)
    chain = ctmc_from_statespace(space)
    pi, diagnostics = solve_with_fallback(chain, solver, reducible=reducible)
    return ModelAnalysis(model, space, chain, pi, solver=diagnostics.method,
                         diagnostics=diagnostics)
