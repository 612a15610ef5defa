"""The Choreographer design platform (paper Section 4, Figure 4).

The integrated pipeline: UML model in (typed, or Poseidon-flavoured
XMI) → preprocess → metadata repository → extract → PEPA Workbench
(numerical solution) → result table → reflect → postprocess → annotated
UML model out.  Every intermediate artefact of Figure 4 is available on
the outcome objects, so tests and benchmarks can assert on each stage.

The XMI boxes hand each other element trees, not text: a document is
parsed once (:func:`~repro.uml.xmi.reader.parse_xmi`), its layout kept
and stripped in place (:func:`~repro.uml.xmi.poseidon.split_layout`)
and the tree read into the repository; the reflected model is built
as a tree, the kept layout merged into it
(:func:`~repro.uml.xmi.poseidon.merge_layout`) and the result
serialised once (:func:`~repro.uml.xmi.writer.serialise_xmi`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ReproError
from repro.extract.activity2pepanet import ExtractionResult, extract_activity_diagram
from repro.obs import get_tracer
from repro.extract.rates import RateTable
from repro.extract.statechart2pepa import StatechartExtraction, compose_state_machines
from repro.pepa.measures import ModelAnalysis
from repro.pepanets.measures import NetAnalysis
from repro.reflect.activity_reflector import reflect_activity_results, results_of_net_analysis
from repro.reflect.results import ResultTable
from repro.reflect.statechart_reflector import (
    reflect_state_probabilities,
    results_of_model_analysis,
)
from repro.choreographer.workbench import PepaNetWorkbench, PepaWorkbench
from repro.choreographer.reporting import activity_report, statechart_report
from repro.uml.activity import ActivityGraph
from repro.uml.model import UmlModel
from repro.uml.statechart import StateMachine
from repro.uml.xmi.poseidon import merge_layout, split_layout
from repro.uml.xmi.reader import mdr_to_model, parse_xmi, xmi_to_mdr
from repro.uml.xmi.writer import mdr_to_xmi, model_to_mdr, serialise_xmi

__all__ = [
    "ActivityOutcome",
    "StatechartOutcome",
    "PipelineFailure",
    "PipelineReport",
    "PipelineResult",
    "Choreographer",
]


@dataclass
class ActivityOutcome:
    """Everything produced by one activity-diagram analysis."""

    extraction: ExtractionResult
    analysis: NetAnalysis
    results: ResultTable
    graph: ActivityGraph

    def throughput_of(self, activity_name: str) -> float:
        """Steady-state throughput of a UML activity, by its diagram name."""
        node = self.graph.action_by_name(activity_name)
        return self.analysis.throughput(self.extraction.pepa_action_of(node))

    def report(self) -> str:
        """A plain-text report of the outcome (the Figure 6/7 content)."""
        return activity_report(self)


@dataclass
class StatechartOutcome:
    """Everything produced by one state-diagram analysis."""

    extractions: list[StatechartExtraction]
    analysis: ModelAnalysis
    results: ResultTable
    machines: list[StateMachine] = field(default_factory=list)

    def probability_of(self, machine_name: str, state_name: str) -> float:
        """Steady-state probability of a UML state, by machine and state name."""
        for extraction in self.extractions:
            if extraction.machine.name == machine_name:
                constant = extraction.constant_of_state(state_name)
                return self.analysis.probability_of_local_state(constant)
        raise KeyError(f"no machine named {machine_name!r} in this outcome")

    def report(self) -> str:
        """A plain-text report of the composed state-diagram analysis."""
        return statechart_report(self)


@dataclass
class PipelineFailure:
    """One captured per-diagram failure of the non-strict pipeline.

    ``stage`` is the tool-chain stage that blew up (``extract``,
    ``solve`` or ``reflect``); ``diagram`` names the offending diagram;
    ``error`` is the original exception, and ``diagnostics`` carries
    the :class:`~repro.resilience.fallback.SolveDiagnostics` attempt
    log when the failure came out of the fallback solver chain.
    """

    stage: str
    diagram: str
    error: Exception
    diagnostics: object | None = None

    @property
    def context(self) -> dict:
        """The structured context of the underlying exception."""
        return getattr(self.error, "context", {})

    def describe(self) -> str:
        """One line: diagram, stage, error type and message."""
        return (
            f"{self.diagram}: {self.stage} failed with "
            f"{type(self.error).__name__}: {self.error}"
        )


@dataclass
class PipelineReport:
    """The failure ledger of one ``process_xmi(strict=False)`` run.

    Empty when everything analysed cleanly; otherwise each
    :class:`PipelineFailure` names the diagram and the stage that
    failed, so one poisoned diagram in a multi-diagram document
    degrades that diagram only instead of aborting the request.
    """

    failures: list[PipelineFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no diagram failed."""
        return not self.failures

    def add(self, stage: str, diagram: str, error: Exception) -> PipelineFailure:
        """Record a failure (diagnostics harvested off the exception)."""
        failure = PipelineFailure(
            stage=stage, diagram=diagram, error=error,
            diagnostics=getattr(error, "diagnostics", None),
        )
        self.failures.append(failure)
        return failure

    def summary(self) -> str:
        """Multi-line human-readable failure summary."""
        if self.ok:
            return "all diagrams analysed"
        return "\n".join(f.describe() for f in self.failures)


@dataclass
class PipelineResult:
    """Everything ``process_xmi`` produced.

    Iterating yields the legacy ``(document, activity_outcomes,
    statechart_outcomes)`` triple, so existing ``a, b, c = ...``
    call sites keep working; :attr:`report` additionally records any
    per-diagram failures captured in non-strict mode.
    """

    document: str
    activity_outcomes: list[ActivityOutcome]
    statechart_outcomes: list[StatechartOutcome]
    report: PipelineReport = field(default_factory=PipelineReport)

    def __iter__(self):
        yield self.document
        yield self.activity_outcomes
        yield self.statechart_outcomes


class Choreographer:
    """The design platform facade.

    Parameters pick the numerical back end: ``solver`` is a method of
    :data:`repro.ctmc.steady.SOLVERS`, a comma-separated fallback chain
    such as ``"direct,gmres,jacobi"`` or a
    :class:`~repro.resilience.fallback.FallbackPolicy`, parsed once into
    the policy every solve runs; ``max_states`` bounds derivation.

    Resilience knobs: ``deadline`` (seconds) puts a cooperative budget
    on each derivation — or pass a pre-built
    :class:`~repro.resilience.budget.ExecutionBudget` as ``budget`` to
    share one task-wide budget across every solve (the batch engine's
    per-task budgets arrive this way); ``strict`` sets the default
    failure policy of :meth:`process_xmi` — ``True``
    fail-fast, ``False`` capture per-diagram failures into the
    :class:`PipelineReport` and keep going.
    """

    def __init__(self, *, solver=None, max_states: int = 1_000_000,
                 deadline: float | None = None, strict: bool = True, budget=None):
        self.max_states = max_states
        self.deadline = deadline
        self.strict = strict
        self.budget = budget
        self.pepa_workbench = PepaWorkbench(
            solver=solver, max_states=max_states, deadline=deadline, budget=budget,
        )
        self.solver = self.pepa_workbench.solver
        self.net_workbench = PepaNetWorkbench(
            solver=self.solver, max_states=max_states, deadline=deadline,
            budget=budget,
        )

    # ------------------------------------------------------------------
    # Activity diagrams (throughput analysis)
    # ------------------------------------------------------------------
    def analyse_activity_diagram(
        self,
        graph: ActivityGraph,
        rates: RateTable | dict | None = None,
        *,
        loop: bool = True,
        reset_rate: float = 1.0,
    ) -> ActivityOutcome:
        """extract → solve → reflect, returning all artefacts.

        Library errors are re-raised with ``stage`` and ``diagram``
        merged into their :attr:`~repro.exceptions.ReproError.context`.
        """
        tracer = get_tracer()
        with tracer.span("diagram.activity", diagram=graph.name) as dsp:
            stage = "extract"
            try:
                with tracer.span("extract"):
                    extraction = extract_activity_diagram(
                        graph, rates, loop=loop, reset_rate=reset_rate
                    )
                stage = "solve"
                with tracer.span("solve"):
                    analysis = self.net_workbench.solve(extraction.net)
                stage = "reflect"
                with tracer.span("reflect"):
                    results = results_of_net_analysis(extraction, analysis)
                    reflect_activity_results(extraction, results)
            except ReproError as exc:
                dsp.set(failed_stage=stage)
                exc.context["pipeline_stage"] = stage
                raise exc.with_context(stage=stage, diagram=graph.name)
            dsp.set(states=analysis.n_states)
        return ActivityOutcome(
            extraction=extraction, analysis=analysis, results=results, graph=graph
        )

    # ------------------------------------------------------------------
    # State diagrams (steady-state probability analysis)
    # ------------------------------------------------------------------
    def analyse_state_diagrams(
        self,
        machines: list[StateMachine],
        rates: RateTable | dict | None = None,
        *,
        cooperation: str = "shared",
    ) -> StatechartOutcome:
        """Compose, solve and reflect a set of state machines.

        Library errors are re-raised with ``stage`` and ``diagram``
        merged into their :attr:`~repro.exceptions.ReproError.context`.
        """
        names = ",".join(m.name for m in machines)
        tracer = get_tracer()
        with tracer.span("diagram.statecharts", diagram=names) as dsp:
            stage = "extract"
            try:
                with tracer.span("extract"):
                    model, extractions = compose_state_machines(
                        machines, rates, cooperation=cooperation
                    )
                stage = "solve"
                with tracer.span("solve"):
                    analysis = self.pepa_workbench.solve(model)
                stage = "reflect"
                with tracer.span("reflect"):
                    results = results_of_model_analysis(extractions, analysis)
                    for extraction in extractions:
                        reflect_state_probabilities(extraction, results)
            except ReproError as exc:
                dsp.set(failed_stage=stage)
                exc.context["pipeline_stage"] = stage
                raise exc.with_context(stage=stage, diagram=names)
            dsp.set(states=analysis.n_states)
        return StatechartOutcome(
            extractions=extractions, analysis=analysis, results=results, machines=machines
        )

    # ------------------------------------------------------------------
    # The full Figure 4 pipeline over XMI text
    # ------------------------------------------------------------------
    def process_xmi(
        self,
        poseidon_text: str,
        rates: RateTable | dict | None = None,
        *,
        loop: bool = True,
        reset_rate: float = 1.0,
        strict: bool | None = None,
    ) -> PipelineResult:
        """Run the complete tool chain on a Poseidon-flavoured document.

        Returns a :class:`PipelineResult` — iterable as the legacy
        ``(document, activity_outcomes, statechart_outcomes)`` triple —
        whose reflected document has structure updated and the original
        layout merged back.

        ``strict`` (default: the platform's ``strict`` setting)
        controls per-diagram failure handling.  Strict mode fails fast,
        exactly as the original pipeline did.  Non-strict mode captures
        each diagram's failure (stage, diagram name, exception, solver
        diagnostics) into ``result.report`` and still analyses and
        reflects every remaining diagram — one malformed diagram in a
        multi-diagram document degrades that diagram only.  Failures
        while reading the document itself always raise: with no model
        there is nothing to degrade to.
        """
        strict = self.strict if strict is None else strict
        tracer = get_tracer()
        with tracer.span("pipeline.read", chars=len(poseidon_text)) as rsp:
            model, layout = _read_project(poseidon_text)
            rsp.set(activity_diagrams=len(model.activity_graphs),
                    state_machines=len(model.state_machines))
        report = PipelineReport()

        activity_outcomes: list[ActivityOutcome] = []
        for graph in model.activity_graphs:
            try:
                activity_outcomes.append(
                    self.analyse_activity_diagram(
                        graph, rates, loop=loop, reset_rate=reset_rate
                    )
                )
            except Exception as exc:
                if strict:
                    raise
                ctx = getattr(exc, "context", {})
                report.add(ctx.get("pipeline_stage", ctx.get("stage", "extract")),
                           graph.name, exc)

        statechart_outcomes: list[StatechartOutcome] = []
        if model.state_machines:
            try:
                statechart_outcomes.append(
                    self.analyse_state_diagrams(model.state_machines, rates)
                )
            except Exception as exc:
                if strict:
                    raise
                ctx = getattr(exc, "context", {})
                names = ",".join(m.name for m in model.state_machines)
                report.add(ctx.get("pipeline_stage", ctx.get("stage", "extract")),
                           names, exc)

        with tracer.span("pipeline.write"):
            reflected = mdr_to_xmi(model_to_mdr(model))
            merge_layout(reflected, layout)
            merged = serialise_xmi(reflected)
        return PipelineResult(
            document=merged,
            activity_outcomes=activity_outcomes,
            statechart_outcomes=statechart_outcomes,
            report=report,
        )

    @staticmethod
    def read(poseidon_text: str) -> UmlModel:
        """Convenience: preprocess + MDR import of a Poseidon document,
        over one parse."""
        return _read_project(poseidon_text)[0]


def _read_project(poseidon_text: str) -> tuple[UmlModel, dict]:
    """The read boxes of Figure 4 over one parse: the typed model of a
    Poseidon document and its layout blocks (which fail here, before any
    analysis, when one lacks its ``xmi.idref``)."""
    tree = parse_xmi(poseidon_text)
    layout = split_layout(tree)
    return mdr_to_model(xmi_to_mdr(tree)), layout
