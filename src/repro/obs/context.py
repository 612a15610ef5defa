"""The one observability context instrumented code records into.

An :class:`ObsContext` names the three collectors of a run — tracer,
metrics registry, event stream — and :func:`use_obs` installs one for
the duration of a ``with`` block::

    tracer, metrics = Tracer(), MetricsRegistry()
    with use_obs(ObsContext(tracer=tracer, metrics=metrics)):
        analysis = workbench.solve_source(source)

Instrumented library code never holds a collector; it calls
:func:`get_tracer` / :func:`get_metrics` / :func:`get_events`, each a
read of the installed context.  The default context holds the shared
no-op singletons, so the disabled path is one attribute read returning
a null object.

A context is immutable and installed whole: a field left out is off,
never inherited from the enclosing context.  That is what keeps a
batch task's collectors apart from its caller's.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs.events import NULL_EVENTS, EventStream, NullEventStream
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.tracing import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "ObsContext",
    "get_tracer",
    "get_metrics",
    "get_events",
    "use_obs",
    "reset_ambient",
    "observe",
]


@dataclass(frozen=True)
class ObsContext:
    """The collectors of one run; every field defaults to off."""

    tracer: Tracer | NullTracer = NULL_TRACER
    metrics: MetricsRegistry | NullMetrics = NULL_METRICS
    events: EventStream | NullEventStream = NULL_EVENTS


_active = ObsContext()


def get_tracer() -> Tracer | NullTracer:
    """The tracer instrumented code should emit spans to."""
    return _active.tracer


def get_metrics() -> MetricsRegistry | NullMetrics:
    """The registry instrumented code should record into."""
    return _active.metrics


def get_events() -> EventStream | NullEventStream:
    """The stream instrumented code should emit events to."""
    return _active.events


@contextmanager
def use_obs(context: ObsContext) -> Iterator[ObsContext]:
    """Install ``context`` for the block; the previous one is restored
    on exit, also when the block raises."""
    global _active
    previous, _active = _active, context
    try:
        yield context
    finally:
        _active = previous


def reset_ambient() -> None:
    """Turn every collector off.

    A worker process forked mid-run inherits whatever context the
    parent had installed at that moment — a snapshot it must never
    record into, both because the parent keeps using the originals and
    because a fork only copies, so the parent would never see the
    writes anyway.  Worker initialisers (see :mod:`repro.batch.engine`)
    call this first, so every worker starts from the same clean slate
    as a fresh interpreter.
    """
    global _active
    _active = ObsContext()


@contextmanager
def observe() -> Iterator[tuple[Tracer, MetricsRegistry]]:
    """Install a fresh tracer + registry for the ``with`` block.

    Yields ``(tracer, metrics)``; events are off.  The previous context
    is restored on exit, so nested observations compose.
    """
    tracer, metrics = Tracer(), MetricsRegistry()
    with use_obs(ObsContext(tracer=tracer, metrics=metrics)):
        yield tracer, metrics
