"""Stochastic simulation (Gillespie SSA) of PEPA models and PEPA nets.

The paper positions simulation as the complementary analysis route
("approximate solutions require the calculation of confidence
intervals, but large state-space size is tolerated" — §1.1, discussing
UML-Ψ).  This engine draws successor states from the term-level
semantics, :func:`repro.pepa.semantics.derivatives` /
:func:`repro.pepanets.semantics.net_arcs`.  The numerical route derives
its state space by a compiled search instead
(:mod:`repro.pepa.compiled`, :mod:`repro.pepanets.compiled`), which is
checked state for state against those same functions; agreement between
the two routes is therefore a genuine end-to-end check of the whole
stack, which ``benchmarks/bench_simulation.py`` performs.

States are visited lazily, so models far beyond the numerical
state-space bound still simulate in bounded memory (transition lists
are memoised per visited state only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable

import numpy as np

from repro.exceptions import SimulationError
from repro.pepa.environment import PepaModel
from repro.pepa.semantics import derivatives
from repro.pepanets.firing import DerivativeSets
from repro.pepanets.semantics import net_arcs
from repro.pepanets.syntax import PepaNet

__all__ = [
    "TransitionFn",
    "SimulationResult",
    "simulate",
    "pepa_transition_fn",
    "net_transition_fn",
    "simulate_pepa",
    "simulate_net",
]

#: A transition function: state → list of (action, rate, successor).
TransitionFn = Callable[[Hashable], list[tuple[str, float, Hashable]]]


@dataclass
class SimulationResult:
    """Counts and time-weighted occupancies from one trajectory."""

    t_end: float
    action_counts: dict[str, int] = field(default_factory=dict)
    #: state → total time spent there (only states actually visited)
    residence: dict[Hashable, float] = field(default_factory=dict)
    #: snapshot time → the state occupied then (when requested)
    snapshots: dict[float, Hashable] = field(default_factory=dict)
    n_events: int = 0
    deadlocked: bool = False

    def throughput(self, action: str) -> float:
        """Completions per time unit over the horizon."""
        return self.action_counts.get(action, 0) / self.t_end

    def probability(self, predicate: Callable[[Hashable], bool]) -> float:
        """Fraction of time spent in states satisfying ``predicate``."""
        total = sum(t for s, t in self.residence.items() if predicate(s))
        return total / self.t_end


def simulate(
    transitions: TransitionFn,
    initial: Hashable,
    t_end: float,
    *,
    seed: int | np.random.Generator = 0,
    warmup: float = 0.0,
    max_events: int = 50_000_000,
    snapshot_times: list[float] | None = None,
) -> SimulationResult:
    """One Gillespie trajectory over ``[0, t_end]`` (after ``warmup``).

    A deadlocked state ends the trajectory early (remaining time is
    attributed to the deadlock state and ``deadlocked`` is set).
    ``snapshot_times`` (measured from the end of warmup) record the
    state occupied at those instants — the raw material for estimating
    transient distributions across replications.
    """
    if t_end <= 0:
        raise SimulationError("t_end must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    cache: dict[Hashable, list[tuple[str, float, Hashable]]] = {}
    pending_snapshots = sorted(snapshot_times or [])
    if pending_snapshots and (pending_snapshots[0] < 0 or pending_snapshots[-1] > t_end):
        raise SimulationError("snapshot times must lie within [0, t_end]")

    state = initial
    now = -warmup
    result = SimulationResult(t_end=t_end)

    def take_snapshots(upto: float) -> None:
        while pending_snapshots and pending_snapshots[0] <= upto:
            result.snapshots[pending_snapshots.pop(0)] = state

    while now < t_end:
        outgoing = cache.get(state)
        if outgoing is None:
            outgoing = transitions(state)
            for _, rate, _ in outgoing:
                if rate <= 0:
                    raise SimulationError(f"non-positive rate in state {state!r}")
            cache[state] = outgoing
        if not outgoing:
            if now < t_end:
                dwell = t_end - max(now, 0.0)
                if dwell > 0:
                    result.residence[state] = result.residence.get(state, 0.0) + dwell
            take_snapshots(t_end)
            result.deadlocked = True
            return result
        rates = np.fromiter((r for _, r, _ in outgoing), dtype=float, count=len(outgoing))
        total = rates.sum()
        dwell = rng.exponential(1.0 / total)
        segment_start = max(now, 0.0)
        segment_end = min(now + dwell, t_end)
        if segment_end > segment_start:
            result.residence[state] = (
                result.residence.get(state, 0.0) + (segment_end - segment_start)
            )
        take_snapshots(min(now + dwell, t_end))
        now += dwell
        if now >= t_end:
            break
        choice = rng.choice(len(outgoing), p=rates / total)
        action, _, successor = outgoing[choice]
        if now >= 0.0:
            result.action_counts[action] = result.action_counts.get(action, 0) + 1
            result.n_events += 1
            if result.n_events >= max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events before t_end; "
                    "lower t_end or raise max_events"
                )
        state = successor
    return result


# ----------------------------------------------------------------------
# Adapters
# ----------------------------------------------------------------------
def pepa_transition_fn(model: PepaModel) -> TransitionFn:
    """Lazy transition function over a PEPA model's derivatives."""
    env = model.environment

    def fn(state):
        out = []
        for tr in derivatives(state, env):
            if tr.rate.is_passive():
                raise SimulationError(
                    f"passive activity ({tr.action}) at the top level of {state}"
                )
            out.append((tr.action, tr.rate.value, tr.target))
        return out

    return fn


def net_transition_fn(net: PepaNet) -> TransitionFn:
    """Lazy transition function over a PEPA net's markings."""
    ds = DerivativeSets(net.environment)

    def fn(marking):
        return net_arcs(net, marking, ds)

    return fn


def simulate_pepa(model: PepaModel, t_end: float, **kwargs) -> SimulationResult:
    """Simulate a PEPA model from its system equation."""
    return simulate(pepa_transition_fn(model), model.system, t_end, **kwargs)


def simulate_net(net: PepaNet, t_end: float, **kwargs) -> SimulationResult:
    """Simulate a PEPA net from its initial marking."""
    return simulate(net_transition_fn(net), net.initial_marking(), t_end, **kwargs)
