"""Bounded structured event streams for solver and exploration internals.

Spans say *where* the time went; events say *what the numerics were
doing while it went*.  An :class:`EventStream` is a bounded append-only
recorder of timestamped, named, keyed observations — one event per
solver iteration (``solver.convergence``), one per uniformisation step
(``uniformization.step``), one every N explored states
(``explore.progress``) — so a slow solve can be replayed residual by
residual instead of summarised by its final number (the behaviour Ding
& Hillston, arXiv:1012.3040, argue is the interesting object).

The design mirrors :mod:`repro.obs.tracing` exactly: instrumented code
asks :func:`repro.obs.get_events` for the stream of the installed
context, which defaults to the shared no-op :data:`NULL_EVENTS`, so
disabled runs pay one method call per *potential* event and nothing
else.  Emitters that must compute a
value just to record it (an extra residual norm, a clock read) guard on
``get_events().enabled`` first.

The buffer is bounded (default :data:`DEFAULT_CAPACITY`): when full,
the oldest events are evicted and counted in :attr:`EventStream.dropped`
— a long power-iteration solve cannot grow memory without bound, and
the tail (the interesting part of a convergence history) is what
survives.

Serialisation is JSON Lines, one event per line, so streams concatenate
and stream through standard tooling::

    stream = EventStream()
    with use_obs(ObsContext(events=stream)):
        steady_state(chain, method="gmres")
    write_events_jsonl("events.jsonl", stream)
    # {"event": "solver.convergence", "t_s": 0.0012, "solver": "gmres",
    #  "iteration": 1, "residual": 3.2e-05}
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Any, Iterator

__all__ = [
    "Event",
    "EventStream",
    "NullEventStream",
    "NULL_EVENTS",
    "DEFAULT_CAPACITY",
    "write_events_jsonl",
    "read_events_jsonl",
]

#: Default bound on buffered events; old events are evicted (and
#: counted) past this, so even a million-iteration solve stays flat.
DEFAULT_CAPACITY = 10_000


class Event:
    """One named, timestamped observation with arbitrary scalar fields."""

    __slots__ = ("name", "t", "fields")

    def __init__(self, name: str, t: float, fields: dict[str, Any]):
        self.name = name
        self.t = t
        self.fields = fields

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-ready rendering: ``event``, ``t_s``, then fields."""
        out: dict[str, Any] = {"event": self.name, "t_s": round(self.t, 9)}
        out.update(self.fields)
        return out

    def __repr__(self) -> str:
        kv = ", ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"Event({self.name!r}, t={self.t:.6f}{', ' + kv if kv else ''})"


class EventStream:
    """A bounded, append-only recorder of structured events.

    Timestamps are seconds since the stream was created (monotonic), so
    events from one run line up with the run's span tree without any
    wall-clock coupling.
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"event stream capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._epoch = time.perf_counter()
        self._events: deque[Event] = deque()

    def emit(self, name: str, **fields: Any) -> None:
        """Append one event, evicting (and counting) the oldest if full."""
        if len(self._events) >= self.capacity:
            self._events.popleft()
            self.dropped += 1
        self._events.append(Event(name, time.perf_counter() - self._epoch, fields))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def by_name(self, name: str) -> list[Event]:
        """Every buffered event called ``name``, oldest first."""
        return [e for e in self._events if e.name == name]

    def names(self) -> list[str]:
        """The distinct event names seen, sorted."""
        return sorted({e.name for e in self._events})

    def clear(self) -> None:
        """Drop every buffered event and reset the eviction count."""
        self._events.clear()
        self.dropped = 0

    def to_dicts(self) -> list[dict[str, Any]]:
        """Every buffered event as a flat JSON-ready dict, oldest first."""
        return [e.to_dict() for e in self._events]


class NullEventStream:
    """The disabled stream: emits vanish, queries see an empty stream."""

    enabled = False
    capacity = 0
    dropped = 0

    def emit(self, name: str, **fields: Any) -> None:
        """No-op: nothing is ever recorded."""
        pass

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[Event]:
        return iter(())

    def by_name(self, name: str) -> list[Event]:
        """Always empty: nothing is ever recorded."""
        return []

    def names(self) -> list[str]:
        """Always empty: nothing is ever recorded."""
        return []

    def clear(self) -> None:
        """No-op: there is nothing to drop."""
        pass

    def to_dicts(self) -> list[dict[str, Any]]:
        """Always empty: nothing is ever recorded."""
        return []


#: The process-wide default: event recording off.
NULL_EVENTS = NullEventStream()


def write_events_jsonl(path, stream: EventStream | NullEventStream) -> int:
    """Serialise the stream as JSON Lines; returns the event count.

    A header line records the schema and how many events were evicted
    from the bounded buffer, so a truncated history is never mistaken
    for a complete one.
    """
    dicts = stream.to_dicts()
    with open(path, "w") as fh:
        header = {"schema": "repro-events/1", "events": len(dicts),
                  "dropped": stream.dropped}
        fh.write(json.dumps(header) + "\n")
        for record in dicts:
            fh.write(json.dumps(record, default=str) + "\n")
    return len(dicts)


def read_events_jsonl(path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Parse a JSONL event file back into ``(header, events)``."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or lines[0].get("schema") != "repro-events/1":
        raise ValueError(f"{path}: not a repro-events/1 JSONL file")
    return lines[0], lines[1:]
