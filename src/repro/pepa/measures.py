"""Model-level performance measures for plain PEPA models.

Thin convenience layer tying the PEPA pipeline together: parse/derive
once, then ask for throughputs, local-state probabilities and
utilisations by *component-local state name* rather than raw CTMC state
index — the vocabulary a modeller (and the reflector) uses.
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

__all__ = ["ModelAnalysis", "analyse"]


class ModelAnalysis:
    """A solved PEPA model with measure accessors.

    The heavy work (derivation + steady state) happens once in
    :func:`analyse`; every accessor is then a cheap dot product.
    """

    def __init__(self, model: PepaModel, space: StateSpace, chain: CTMC, pi: np.ndarray,
                 solver: str = "direct", diagnostics=None):
        self.model = model
        self.space = space
        self.chain = chain
        self.pi = pi
        self.solver = solver
        #: The :class:`~repro.resilience.fallback.SolveDiagnostics` of the
        #: solve: winning method, every attempt, the residual.
        self.diagnostics = diagnostics

    # ------------------------------------------------------------------
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

        Matches ``name`` as a whole identifier inside the derivative
        label, so ``File`` does not match ``FileReader``.
        """
        pattern = rf"\b{re.escape(name)}\b"
        return rewards.probability_by_label(self.chain, pattern, self.pi, regex=True)

    def utilisation(self, predicate) -> float:
        """Probability mass of states satisfying ``predicate(index, label)``."""
        return rewards.utilisation(self.chain, predicate, self.pi)

    def state_probabilities(self) -> list[tuple[str, float]]:
        """(label, probability) for every global state, model order."""
        return [(self.chain.labels[i], float(self.pi[i])) for i in range(self.n_states)]

    # ------------------------------------------------------------------
    # Time-dependent measures
    # ------------------------------------------------------------------
    def _states_with_local(self, name: str) -> list[int]:
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        return [i for i, lbl in enumerate(self.chain.labels) if pattern.search(lbl)]

    def transient_probability_of_local_state(self, name: str, t: float) -> float:
        """P(some component is in local state ``name`` at time ``t``),
        starting from the model's initial state."""
        from repro.ctmc.transient import transient_distribution

        dist = transient_distribution(self.chain, t, self.chain.initial)
        return float(sum(dist[i] for i in self._states_with_local(name)))

    def mean_time_to_local_state(self, name: str) -> float:
        """Expected time until some component first enters local state
        ``name``, from the initial state."""
        from repro.ctmc.passage import mean_passage_time

        targets = self._states_with_local(name)
        if not targets:
            raise SolverError(f"no state mentions local state {name!r}")
        return mean_passage_time(self.chain, self.chain.initial, targets)


def analyse(
    model: PepaModel,
    *,
    solver: "FallbackPolicy | str | None" = None,
    max_states: int = DEFAULT_MAX_STATES,
    reducible: str = "error",
    budget: "ExecutionBudget | None" = None,
    fluid: bool = False,
    replicas: int | None = None,
):
    """Derive and solve ``model``; returns a :class:`ModelAnalysis`.

    ``reducible="bscc"`` permits models with a transient start-up phase
    (see :func:`repro.resilience.fallback.solve_with_fallback`).
    ``budget`` is an optional
    :class:`~repro.resilience.budget.ExecutionBudget` bounding the
    derivation.  ``solver`` is a method name, a comma-separated fallback
    chain or a :class:`~repro.resilience.fallback.FallbackPolicy`; the
    returned analysis carries the solve's diagnostics, and its
    ``solver`` names the method that produced the answer.

    ``fluid=True`` switches to the mean-field route: the model must
    have the replicated population shape, the (optional) ``replicas``
    count overrides the one spelled out in the system equation, and the
    result is a :class:`~repro.fluid.ode.FluidAnalysis` (occupancies
    and throughputs in time independent of the replica count) instead
    of a :class:`ModelAnalysis`.
    """
    if fluid:
        from repro.fluid.ode import analyse_fluid

        return analyse_fluid(model, replicas=replicas)
    if replicas is not None:
        raise SolverError(
            "replicas is only meaningful on the fluid route; pass fluid=True"
        )
    space = derive(model, max_states=max_states, budget=budget)
    chain = ctmc_from_statespace(space)
    pi, diagnostics = solve_with_fallback(chain, solver, reducible=reducible)
    return ModelAnalysis(model, space, chain, pi, solver=diagnostics.method,
                         diagnostics=diagnostics)
