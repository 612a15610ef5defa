"""Hierarchical span tracing for the tool-chain hot path.

A :class:`Span` is one timed region of work — ``pepa.statespace``,
``ctmc.solve`` — with wall-clock start/end, arbitrary key/value
attributes and child spans, so a whole pipeline run renders as a tree
of where the time went.  A :class:`Tracer` hands out spans as context
managers and keeps the nesting stack::

    tracer = Tracer()
    with use_obs(ObsContext(tracer=tracer)):
        with tracer.span("pepa.statespace") as sp:
            ...
            sp.set(states=space.size, arcs=space.n_arcs)
    print(render_trace(tracer))

Instrumented library code never imports a concrete tracer; it calls
:func:`repro.obs.get_tracer`, which returns the tracer of the installed
:class:`~repro.obs.context.ObsContext` — by default the
:data:`NULL_TRACER`, whose ``span`` hands back one shared no-op object.
The disabled path is a method call returning a singleton, no
allocation, no clock read — the "zero-cost when off" contract the
benchmarks rely on.

A tracer built with a resource ``probe`` (see
:class:`repro.obs.profile.SpanResourceProbe`) hands it to every span it
opens, so each closed span also carries exact CPU (and memory) deltas.

Exceptions propagate through spans untouched; a span whose body raised
is closed with ``error`` set to the exception type name, so partial
traces of failed runs are still meaningful.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Iterator

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]


class Span:
    """One timed, attributed region of work in a trace tree.

    Besides the monotonic ``start``/``end`` pair, every span stamps its
    wall-clock ``epoch`` and the ``pid``/``tid`` that opened it, so
    traces merged across worker processes stay attributable and export
    cleanly to Chrome Trace Event Format (:mod:`repro.obs.export`).
    """

    __slots__ = ("name", "start", "end", "attributes", "children",
                 "epoch", "pid", "tid", "_res")

    def __init__(self, name: str, attributes: dict[str, Any] | None = None,
                 probe=None):
        self.name = name
        self.start = time.perf_counter()
        self.epoch = time.time()
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.end: float | None = None
        self.attributes: dict[str, Any] = dict(attributes) if attributes else {}
        self.children: list[Span] = []
        self._res = (probe, probe.begin()) if probe is not None else None

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to now for a still-open span)."""
        return (time.perf_counter() if self.end is None else self.end) - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) key/value attributes; returns self."""
        self.attributes.update(attributes)
        return self

    def close(self) -> None:
        """Stamp the end time (idempotent)."""
        if self.end is None:
            self.end = time.perf_counter()
            if self._res is not None:
                probe, token = self._res
                self._res = None
                probe.finish(self, token)

    def find(self, name: str) -> "Span | None":
        """Depth-first search for the first descendant named ``name``."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready rendering: name, duration, attributes, children.

        ``start_unix``/``pid``/``tid`` were added for the Chrome-trace
        exporter; ``repro-trace/1`` consumers that predate them ignore
        unknown keys, so the schema version is unchanged.
        """
        return {
            "name": self.name,
            "duration_s": round(self.duration, 9),
            "start_unix": round(self.epoch, 6),
            "pid": self.pid,
            "tid": self.tid,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if self.closed else "open"
        return f"Span({self.name!r}, {state}, {len(self.children)} children)"


class _SpanHandle:
    """Context manager opening/closing one span on a tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and "error" not in self._span.attributes:
            self._span.set(error=exc_type.__name__)
        self._span.close()
        self._tracer._pop(self._span)
        return False


class Tracer:
    """A live tracer collecting a forest of span trees.

    ``roots`` holds every top-level span opened while no other span was
    active (the Choreographer opens one root per diagram, so one
    ``process_xmi`` run yields one trace per diagram).  ``probe`` is an
    optional per-span resource probe: ``None`` keeps span creation at
    two clock reads; a probe adds deterministic CPU (and optionally
    tracemalloc) accounting to every span.
    """

    enabled = True

    def __init__(self, probe=None):
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self.probe = probe

    def span(self, name: str, **attributes: Any) -> _SpanHandle:
        """Open a child span of the current span (or a new root)."""
        span = Span(name, attributes, self.probe)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return _SpanHandle(self, span)

    def _pop(self, span: Span) -> None:
        # Tolerate exits in any order: close everything above the span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top.close()

    def current(self) -> Span | None:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def stack_names(self) -> list[str]:
        """Outermost-first names of the open spans (the profiler reads
        this from its sampling thread; the list copy keeps it safe)."""
        return [span.name for span in list(self._stack)]

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the current span (no-op outside spans)."""
        if self._stack:
            self._stack[-1].set(**attributes)

    def clear(self) -> None:
        """Drop every collected span (the stack must be empty)."""
        self.roots.clear()
        self._stack.clear()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready rendering of the whole trace forest."""
        return {"schema": "repro-trace/1", "traces": [r.to_dict() for r in self.roots]}


class _NullSpan:
    """The shared do-nothing span; also its own context manager."""

    __slots__ = ()

    name = "null"
    attributes: dict[str, Any] = {}
    children: list[Span] = []
    duration = 0.0
    closed = True

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def close(self) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every call returns the shared no-op span."""

    enabled = False
    roots: list[Span] = []

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        """The shared no-op span, whatever the name and attributes."""
        return _NULL_SPAN

    def current(self) -> None:
        """Always ``None``: no span is ever open."""
        return None

    def stack_names(self) -> list[str]:
        """Always empty: no span is ever open."""
        return []

    def annotate(self, **attributes: Any) -> None:
        """No-op: there is no span to annotate."""
        pass

    def clear(self) -> None:
        """No-op: nothing is ever collected."""
        pass

    def to_dict(self) -> dict[str, Any]:
        """An empty but schema-valid trace document."""
        return {"schema": "repro-trace/1", "traces": []}


#: The process-wide default: tracing off.
NULL_TRACER = NullTracer()
