"""The PEPA Workbench facades.

The paper builds on two tools: the PEPA Workbench [20] for plain PEPA
models and the PEPA Workbench for PEPA nets [23].  These classes are
their API images: parse/check/derive/solve with a chosen numerical
method, caching nothing, raising early.  One base, :class:`Workbench`,
holds the pipeline; each facade names its formalism's parser, static
checks and analysis.

Both facades take the numerical method as ``solver``: a method name, a
comma-separated fallback chain or a
:class:`~repro.resilience.fallback.FallbackPolicy`, parsed and checked
when the facade is built, so a typo fails before any model is read.
``budget`` is the one wall clock: a pre-built
:class:`~repro.resilience.budget.ExecutionBudget` shared by every
derivation of the workbench, whose clock started when its owner built
it (the CLI, once per invocation; the batch engine, once per task).
"""

from __future__ import annotations

from repro.pepa.measures import ModelAnalysis, analyse
from repro.pepa.environment import PepaModel
from repro.pepa.parser import parse_model
from repro.pepa.wellformed import assert_well_formed
from repro.pepanets.measures import analyse_net
from repro.pepanets.parser import parse_net
from repro.pepanets.wellformed import assert_net_well_formed
from repro.resilience.budget import ExecutionBudget
from repro.resilience.fallback import FallbackPolicy

__all__ = ["Workbench", "PepaWorkbench", "PepaNetWorkbench"]


class Workbench:
    """Parse → check → derive → solve for one formalism.

    A subclass names its formalism's three steps as ``_read`` (source
    text → model), ``_check`` (static well-formedness, raising) and
    ``_analyse`` (derive and solve, returning the analysis object).
    """

    def __init__(self, *, solver: FallbackPolicy | str | None = None,
                 max_states: int = 1_000_000, reducible: str = "error",
                 budget: ExecutionBudget | None = None):
        self.solver = FallbackPolicy.of(solver)
        self.solver.validate()
        self.max_states = max_states
        self.reducible = reducible
        self.budget = budget

    def parse(self, source: str):
        """Parse source text and run the static well-formedness checks."""
        model = self._read(source)
        self._check(model)
        return model

    def solve(self, model):
        """Check, derive and solve a model; returns the analysis object."""
        self._check(model)
        return self._analyse(
            model, solver=self.solver, max_states=self.max_states,
            reducible=self.reducible, budget=self.budget,
        )

    def solve_source(self, source: str):
        """Parse + solve in one call."""
        return self.solve(self.parse(source))


class PepaWorkbench(Workbench):
    """Solve plain PEPA models (the Java-edition Workbench stand-in).

    ``fluid=True`` takes the mean-field route: :meth:`solve` returns a
    :class:`~repro.fluid.ode.FluidAnalysis` of the fluid ODE limit,
    with the population scaled to ``replicas`` when set.
    """

    _read = staticmethod(parse_model)
    _check = staticmethod(assert_well_formed)
    _analyse = staticmethod(analyse)

    def __init__(self, *, fluid: bool = False, replicas: int | None = None, **knobs):
        super().__init__(**knobs)
        self.fluid = fluid
        self.replicas = replicas

    def solve(self, model: PepaModel) -> ModelAnalysis:
        """Check, derive and solve a model; returns the analysis object
        (a :class:`~repro.fluid.ode.FluidAnalysis` on the fluid route)."""
        if not self.fluid:
            return super().solve(model)
        from repro.fluid.ode import analyse_fluid

        self._check(model)
        return analyse_fluid(model, replicas=self.replicas)


class PepaNetWorkbench(Workbench):
    """Solve PEPA nets (the PEPA Workbench for PEPA nets stand-in).

    Mobility models routinely have a transient start-up phase, so the
    reducible policy defaults to ``"bscc"``.
    """

    _read = staticmethod(parse_net)
    _check = staticmethod(assert_net_well_formed)
    _analyse = staticmethod(analyse_net)

    def __init__(self, *, reducible: str = "bscc", **knobs):
        super().__init__(reducible=reducible, **knobs)
