"""The PEPA Workbench facades.

The paper builds on two tools: the PEPA Workbench [20] for plain PEPA
models and the PEPA Workbench for PEPA nets [23].  These classes are
their API images: parse/check/derive/solve with a chosen numerical
method, caching nothing, raising early.

Both facades take the numerical method as ``solver``: a method name, a
comma-separated fallback chain or a
:class:`~repro.resilience.fallback.FallbackPolicy`, parsed and checked
when the facade is built, so a typo fails before any model is read.
``deadline`` (seconds) puts a fresh cooperative
:class:`~repro.resilience.budget.ExecutionBudget` on each solve's
state-space derivation.  Alternatively ``budget`` installs one
*shared* pre-built budget across every solve of the workbench — the
batch engine uses this to give each task a single task-wide budget
whose clock started when the task did.
"""

from __future__ import annotations

from repro.pepa.measures import ModelAnalysis, analyse
from repro.pepa.environment import PepaModel
from repro.pepa.parser import parse_model
from repro.pepa.wellformed import assert_well_formed
from repro.pepanets.measures import NetAnalysis, analyse_net
from repro.pepanets.parser import parse_net
from repro.pepanets.syntax import PepaNet
from repro.pepanets.wellformed import assert_net_well_formed
from repro.resilience.budget import ExecutionBudget
from repro.resilience.fallback import FallbackPolicy

__all__ = ["PepaWorkbench", "PepaNetWorkbench"]


def _parse_solver(solver: FallbackPolicy | str | None) -> FallbackPolicy:
    """Parse and check a ``solver`` argument (O(1), before any solve)."""
    policy = FallbackPolicy.of(solver)
    policy.validate()
    return policy


class PepaWorkbench:
    """Solve plain PEPA models (the Java-edition Workbench stand-in)."""

    def __init__(self, *, solver: FallbackPolicy | str | None = None,
                 max_states: int = 1_000_000, reducible: str = "error",
                 deadline: float | None = None,
                 budget: ExecutionBudget | None = None,
                 fluid: bool = False, replicas: int | None = None):
        self.solver = _parse_solver(solver)
        self.max_states = max_states
        self.reducible = reducible
        self.deadline = deadline
        self.budget = budget
        #: Mean-field route: solve the fluid ODE limit instead of the
        #: exact CTMC, scaling the population to ``replicas`` when set.
        self.fluid = fluid
        self.replicas = replicas

    def _budget(self) -> ExecutionBudget | None:
        if self.budget is not None:
            return self.budget
        if self.deadline is None:
            return None
        return ExecutionBudget.of(deadline_seconds=self.deadline)

    def parse(self, source: str) -> PepaModel:
        """Parse source text and run the static well-formedness checks."""
        model = parse_model(source)
        assert_well_formed(model)
        return model

    def solve(self, model: PepaModel) -> ModelAnalysis:
        """Check, derive and solve a model; returns the analysis object
        (a :class:`~repro.fluid.ode.FluidAnalysis` on the fluid route)."""
        assert_well_formed(model)
        if self.fluid:
            return analyse(model, fluid=True, replicas=self.replicas)
        return analyse(
            model, solver=self.solver, max_states=self.max_states,
            reducible=self.reducible, budget=self._budget(),
        )

    def solve_source(self, source: str) -> ModelAnalysis:
        """Parse + solve in one call."""
        return self.solve(self.parse(source))


class PepaNetWorkbench:
    """Solve PEPA nets (the PEPA Workbench for PEPA nets stand-in)."""

    def __init__(self, *, solver: FallbackPolicy | str | None = None,
                 max_states: int = 1_000_000, reducible: str = "bscc",
                 deadline: float | None = None,
                 budget: ExecutionBudget | None = None):
        self.solver = _parse_solver(solver)
        self.max_states = max_states
        self.reducible = reducible
        self.deadline = deadline
        self.budget = budget

    def _budget(self) -> ExecutionBudget | None:
        if self.budget is not None:
            return self.budget
        if self.deadline is None:
            return None
        return ExecutionBudget.of(deadline_seconds=self.deadline)

    def parse(self, source: str) -> PepaNet:
        """Parse PEPA-net source and run the net-level static checks."""
        net = parse_net(source)
        assert_net_well_formed(net)
        return net

    def solve(self, net: PepaNet) -> NetAnalysis:
        """Check, derive and solve a net; returns the analysis object."""
        assert_net_well_formed(net)
        return analyse_net(
            net, solver=self.solver, max_states=self.max_states,
            reducible=self.reducible, budget=self._budget(),
        )

    def solve_source(self, source: str) -> NetAnalysis:
        """Parse + solve in one call."""
        return self.solve(self.parse(source))
