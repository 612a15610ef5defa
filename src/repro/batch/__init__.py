"""``repro.batch`` — parallel batch execution and derivation caching.

Two cooperating pieces turn the one-diagram-at-a-time Choreographer
into a throughput machine:

* :mod:`repro.batch.cache` — a content-addressed on-disk cache of
  derived state spaces and generator matrices, keyed by
  :class:`repro.core.keys.DerivationKey` (a stable hash of model
  source, formalism and derivation parameters), consulted ambiently by
  the derivation layers so *any* repeated derivation — same diagram
  twice in a document, the same model across sweep runs — is a file
  read instead of a BFS;
* :mod:`repro.batch.engine` — a multiprocess work-queue engine running
  Choreographer pipelines, experiment sweeps and bench workloads
  across N workers, each with its own ambient observability and
  per-task :class:`~repro.resilience.budget.BudgetSpec`, merging the
  workers' traces/metrics/events back into the single documents the
  analysis tooling consumes — under supervision (retry with backoff,
  pool rebuild on worker death, per-task timeouts, quarantine) so one
  crashed worker never takes the batch down;
* :mod:`repro.batch.journal` — the append-only ``repro-journal/1``
  checkpoint file a supervised run writes per completed task, and the
  resume path that replays it.

This module eagerly exposes only the cache layer; the engine (which
pulls in the whole tool chain via its task runners) loads on first
attribute access, so low-level modules may import
``repro.batch.cache`` without dragging the Choreographer along.
"""

from __future__ import annotations

from typing import Any

from repro.batch.cache import (
    DerivationCache,
    get_cache,
    set_cache,
    use_cache,
)

__all__ = [
    "BatchEngine",
    "BatchReport",
    "BatchResult",
    "BatchTask",
    "DerivationCache",
    "RetryPolicy",
    "RunJournal",
    "get_cache",
    "run_batch",
    "set_cache",
    "use_cache",
]

_ENGINE_EXPORTS = {
    "BatchEngine", "BatchReport", "BatchResult", "BatchTask", "RetryPolicy",
    "run_batch",
}
_JOURNAL_EXPORTS = {"RunJournal"}


def __getattr__(name: str) -> Any:
    if name in _ENGINE_EXPORTS:
        from repro.batch import engine

        return getattr(engine, name)
    if name in _JOURNAL_EXPORTS:
        from repro.batch import journal

        return getattr(journal, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
