"""Task runners: what each :class:`~repro.batch.engine.BatchTask` kind does.

Every runner takes the task's JSON-able ``payload`` plus the
worker-materialised :class:`~repro.resilience.budget.ExecutionBudget`
and returns a JSON-able *measures* dict.  Measures must be functions of
the payload alone — no clocks, no pids, no paths — because the batch
contract compares them byte-for-byte between serial and parallel runs.

Kinds:

``xmi``
    The full Figure 4 Choreographer pipeline over a Poseidon document:
    ``{"text": ..., "rates": {...}, "loop": true, "reset_rate": 1.0,
    "solver": "direct", "strict": false}``; ``solver`` is a method name
    or a comma-separated fallback chain such as ``"direct,gmres,jacobi"``
    (as in every kind that solves; absent or ``None`` means the default
    chain, ordered by chain size); ``rates_text`` (raw ``.rates`` file
    content) may replace ``rates``.
``pepa`` / ``net``
    Parse-and-solve of a textual PEPA model / PEPA net:
    ``{"source": ..., "solver": "direct"}``.  A PEPA payload with
    ``{"fluid": true, "replicas": N}`` is solved on the mean-field
    fluid route instead of the exact CTMC.
``experiment``
    One EXPERIMENTS.md row by id: ``{"experiment": "E1"}``.
``call``
    Any importable callable returning a JSON-able dict:
    ``{"target": "module:function", "kwargs": {...}}`` — runs any
    workload under the engine's supervision (the supervision tests
    drive their crash and hang fakes through it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.keys import stable_digest

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.batch.engine import BatchTask
    from repro.resilience.budget import ExecutionBudget

__all__ = ["TASK_KINDS", "run_task"]


def _round_map(values: dict[str, float]) -> dict[str, float]:
    """Floats passed through exactly; ordering canonicalised by name."""
    return {name: float(values[name]) for name in sorted(values)}


def _rate_table(payload: dict[str, Any]):
    """Rebuild the rate table from its JSON-able payload form."""
    if "rates_text" in payload:
        from repro.extract.rates import parse_rates

        return parse_rates(payload["rates_text"])
    if "rates" in payload and payload["rates"] is not None:
        from repro.extract.rates import RateTable

        return RateTable.from_numbers(payload["rates"])
    return None


def _run_xmi(payload: dict[str, Any], budget: "ExecutionBudget | None") -> dict[str, Any]:
    from repro.choreographer.platform import Choreographer

    platform = Choreographer(
        solver=payload.get("solver"),
        max_states=payload.get("max_states", 1_000_000),
        strict=payload.get("strict", False),
        budget=budget,
    )
    result = platform.process_xmi(
        payload["text"],
        _rate_table(payload),
        loop=payload.get("loop", True),
        reset_rate=payload.get("reset_rate", 1.0),
    )
    diagrams: list[dict[str, Any]] = []
    for outcome in result.activity_outcomes:
        diagrams.append({
            "diagram": outcome.graph.name,
            "type": "activity",
            "n_states": outcome.analysis.n_states,
            "throughputs": _round_map(outcome.analysis.all_throughputs()),
        })
    for outcome in result.statechart_outcomes:
        diagrams.append({
            "diagram": ",".join(m.name for m in outcome.machines),
            "type": "statecharts",
            "n_states": outcome.analysis.n_states,
            "throughputs": _round_map(outcome.analysis.all_throughputs()),
        })
    return {
        "diagrams": diagrams,
        "failures": [
            {"diagram": f.diagram, "stage": f.stage,
             "error": f"{type(f.error).__name__}: {f.error}"}
            for f in result.report.failures
        ],
        "document_sha256": stable_digest(result.document),
    }


def _run_pepa(payload: dict[str, Any], budget: "ExecutionBudget | None") -> dict[str, Any]:
    from repro.choreographer.workbench import PepaWorkbench

    if payload.get("fluid"):
        workbench = PepaWorkbench(fluid=True, replicas=payload.get("replicas"))
        analysis = workbench.solve_source(payload["source"])
        return {
            "dimension": analysis.dimension,
            "replicas": analysis.replicas,
            "method": analysis.solver,
            "throughputs": _round_map(analysis.all_throughputs()),
            "occupancies": _round_map(analysis.occupancies()),
        }
    workbench = PepaWorkbench(
        solver=payload.get("solver"),
        max_states=payload.get("max_states", 1_000_000),
        budget=budget,
    )
    analysis = workbench.solve_source(payload["source"])
    return {
        "n_states": analysis.n_states,
        "solver": analysis.solver,
        "throughputs": _round_map(analysis.all_throughputs()),
    }


def _run_net(payload: dict[str, Any], budget: "ExecutionBudget | None") -> dict[str, Any]:
    from repro.choreographer.workbench import PepaNetWorkbench

    workbench = PepaNetWorkbench(
        solver=payload.get("solver"),
        max_states=payload.get("max_states", 1_000_000),
        budget=budget,
    )
    analysis = workbench.solve_source(payload["source"])
    return {
        "n_states": analysis.n_states,
        "solver": analysis.solver,
        "throughputs": _round_map(analysis.all_throughputs()),
        "locations": _round_map(analysis.location_distribution()),
    }


def _run_experiment(payload: dict[str, Any], budget: "ExecutionBudget | None") -> dict[str, Any]:
    from repro.choreographer.experiments import run_experiment
    from repro.choreographer.platform import Choreographer

    record = run_experiment(
        payload["experiment"], Choreographer(budget=budget)
    )
    return {
        "experiment": record.experiment,
        "description": record.description,
        "metrics": _round_map(record.metrics),
        "checks": {name: bool(record.checks[name]) for name in sorted(record.checks)},
        "ok": record.ok,
    }


def _run_call(payload: dict[str, Any], budget: "ExecutionBudget | None") -> dict[str, Any]:
    import importlib

    target = payload["target"]
    module_name, _, attr = target.partition(":")
    if not module_name or not attr:
        raise ValueError(f"call target must be 'module:function', got {target!r}")
    function = getattr(importlib.import_module(module_name), attr)
    result = function(**payload.get("kwargs", {}))
    if not isinstance(result, dict):
        raise TypeError(
            f"call target {target!r} returned {type(result).__name__}, "
            "expected a JSON-able dict"
        )
    return result


#: kind → runner; extend here to teach the engine new work shapes.
TASK_KINDS: dict[str, Callable[[dict[str, Any], "ExecutionBudget | None"], dict[str, Any]]] = {
    "xmi": _run_xmi,
    "pepa": _run_pepa,
    "net": _run_net,
    "experiment": _run_experiment,
    "call": _run_call,
}


def run_task(task: "BatchTask", *, budget: "ExecutionBudget | None" = None) -> dict[str, Any]:
    """Dispatch ``task`` to its kind's runner; returns the measures dict."""
    try:
        runner = TASK_KINDS[task.kind]
    except KeyError:
        raise ValueError(
            f"unknown task kind {task.kind!r}; choose from {sorted(TASK_KINDS)}"
        ) from None
    return runner(task.payload, budget)
