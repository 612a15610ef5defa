"""The persistent run ledger: every invocation leaves a durable record.

A production system is operated through its telemetry *history*, not
single-invocation dumps.  The :class:`RunLedger` is an append-only
on-disk store (format ``repro-runs/1``) of **run documents** — one
``repro-run/1`` JSON file per choreographer / batch / fuzz
invocation, carrying the run's identity (command, label, wall-clock
timestamp passed in from the entrypoint, config fingerprint via
:func:`repro.core.keys.stable_digest`, host info), its per-span
aggregates and full span forest, metrics snapshot (cache traffic
included), event records, incidents and profiler samples — so
``choreographer runs list|show|explain|compare|trend|export`` can answer "where did
this run's time go?" and "how has this pipeline been behaving?"
across days of history instead of one process lifetime.  The document
is the only thing a run records.

Storage discipline follows :mod:`repro.batch.cache`: documents are
serialised fully before touching the store, published with a temp file
+ ``os.replace`` (a crashed writer can never leave a torn document),
and claimed under a monotonically increasing zero-padded run id with
an exclusive-create loop, so concurrent writers each get their own id.
Nothing is ever rewritten — the ledger only grows, and pruning is an
explicit :meth:`RunLedger.prune`.

There is no ambient ledger: an entrypoint that records (the CLI's
``--ledger DIR``) builds a :class:`RunLedger` and calls
:meth:`RunLedger.record` once, after the run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

from repro.utils.sysinfo import host_info, peak_rss_kib

__all__ = [
    "LEDGER_FORMAT",
    "RUN_SCHEMA",
    "RunLedger",
    "build_run_document",
]

#: On-disk store format, recorded in a ``FORMAT`` marker file so a
#: future layout change can detect (and refuse or migrate) old stores.
LEDGER_FORMAT = "repro-runs/1"

#: Schema of one run document.
RUN_SCHEMA = "repro-run/1"

_ID_WIDTH = 6


class RunLedger:
    """Append-only store of run documents under one directory."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        marker = self.root / "FORMAT"
        if marker.exists():
            found = marker.read_text().strip()
            if found != LEDGER_FORMAT:
                raise ValueError(
                    f"{self.root} is a {found!r} store, not {LEDGER_FORMAT!r}"
                )
        else:
            self._atomic_write(marker, LEDGER_FORMAT + "\n")

    # ------------------------------------------------------------------
    def _atomic_write(self, path: Path, text: str) -> None:
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(text)
        os.replace(tmp, path)

    def _run_path(self, run_id: str) -> Path:
        return self.root / f"run-{run_id}.json"

    # ------------------------------------------------------------------
    def record(self, document: dict[str, Any]) -> str:
        """Append one run document; returns its assigned run id.

        The document is serialised *first* (a document that cannot be
        JSON-encoded leaves nothing on disk), then published under the
        next free id.  ``os.link`` from the temp file claims the id
        atomically; a concurrent writer that wins the race just pushes
        this one to the next id.
        """
        if document.get("schema") != RUN_SCHEMA:
            raise ValueError(
                f"not a {RUN_SCHEMA} document: schema={document.get('schema')!r}"
            )
        document = dict(document)
        ids = self.run_ids()
        next_id = (int(ids[-1]) + 1) if ids else 1
        tmp = self.root / f".record.{os.getpid()}.tmp"
        while True:
            run_id = f"{next_id:0{_ID_WIDTH}d}"
            document["run_id"] = run_id
            tmp.write_text(json.dumps(document, sort_keys=True, indent=2,
                                      default=str) + "\n")
            target = self._run_path(run_id)
            try:
                os.link(tmp, target)
            except FileExistsError:
                next_id += 1
                continue
            except OSError:
                # Filesystem without hard links: fall back to an
                # exclusive create of the final name, then replace.
                try:
                    with open(target, "x"):
                        pass
                except FileExistsError:
                    next_id += 1
                    continue
                os.replace(tmp, target)
                return run_id
            finally:
                tmp.unlink(missing_ok=True)
            return run_id

    # ------------------------------------------------------------------
    def run_ids(self) -> list[str]:
        """Every recorded run id, oldest first."""
        ids = []
        for path in self.root.glob("run-*.json"):
            stem = path.stem[len("run-"):]
            if stem.isdigit():
                ids.append(stem)
        return sorted(ids)

    def load(self, run_id: str) -> dict[str, Any]:
        """One run document by id (zero-padding optional)."""
        if run_id.isdigit():
            run_id = f"{int(run_id):0{_ID_WIDTH}d}"
        path = self._run_path(run_id)
        if not path.exists():
            raise FileNotFoundError(f"no run {run_id!r} in ledger {self.root}")
        document = json.loads(path.read_text())
        if document.get("schema") != RUN_SCHEMA:
            raise ValueError(f"{path}: not a {RUN_SCHEMA} document")
        return document

    def runs(self, *, command: str | None = None,
             last: int | None = None) -> list[dict[str, Any]]:
        """Run documents oldest-first, optionally filtered and tail-limited.

        An unparsable document (torn by an ancient crash, foreign
        bytes) is skipped, never fatal: history survives one bad file.
        """
        out = []
        for run_id in self.run_ids():
            try:
                document = self.load(run_id)
            except (ValueError, OSError, json.JSONDecodeError):
                continue
            if command is not None and document.get("command") != command:
                continue
            out.append(document)
        if last is not None:
            out = out[-last:]
        return out

    def latest(self) -> dict[str, Any] | None:
        """The most recent run document, or ``None`` in an empty ledger."""
        ids = self.run_ids()
        return self.load(ids[-1]) if ids else None

    def prune(self, keep: int) -> int:
        """Delete all but the newest ``keep`` runs; returns the count removed."""
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        victims = self.run_ids()[:-keep] if keep else self.run_ids()
        for run_id in victims:
            self._run_path(run_id).unlink(missing_ok=True)
        return len(victims)

    def __len__(self) -> int:
        return len(self.run_ids())


# ---------------------------------------------------------------------------
# Run-document assembly
# ---------------------------------------------------------------------------
def build_run_document(
    *,
    command: str,
    created_unix: float | None = None,
    label: str | None = None,
    config: dict[str, Any] | None = None,
    tasks_fingerprint: str | None = None,
    trace: dict[str, Any] | None = None,
    metrics: dict[str, Any] | None = None,
    events: list[dict[str, Any]] | None = None,
    events_dropped: int = 0,
    profile: dict[str, Any] | None = None,
    incidents: list[dict[str, Any]] | None = None,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble one ``repro-run/1`` document from a run's snapshots.

    Every argument is plain data.  ``created_unix`` is the wall-clock
    timestamp the *entrypoint* observed (defaults to now); ``config`` is
    fingerprinted via :func:`~repro.core.keys.stable_digest` so ``runs
    trend`` can group comparable runs.  ``trace`` is a
    ``repro-trace/1`` forest, embedded whole (what ``runs explain`` and
    ``runs export --chrome`` replay) and aggregated per span name into
    ``spans`` (what ``runs compare``/``trend`` judge); ``metrics`` a
    ``repro-metrics/1`` snapshot; ``events`` the flat event dicts, kept
    as ``events.records`` beside their count, the ``events_dropped``
    evictions and a per-name tally; ``profile`` a ``repro-profile/1``
    document, kept when it caught samples.
    """
    # Imported here, not at module top: repro.core pulls in the numeric
    # layers, which themselves import repro.obs for instrumentation.
    from repro.core.keys import stable_digest
    from repro.obs.analysis import aggregate_spans

    document: dict[str, Any] = {
        "schema": RUN_SCHEMA,
        "command": command,
        "created_unix": round(time.time() if created_unix is None
                              else created_unix, 6),
        "label": label,
        "host": host_info(),
        "peak_rss_kib": peak_rss_kib(),
        "config": dict(config) if config else {},
        "config_fingerprint": stable_digest(dict(config) if config else {}),
    }
    if tasks_fingerprint is not None:
        document["tasks_fingerprint"] = tasks_fingerprint
    if trace is not None:
        if trace.get("schema") != "repro-trace/1":
            raise ValueError(
                f"not a repro-trace/1 forest: schema={trace.get('schema')!r}"
            )
        document["trace"] = trace
        document["spans"] = aggregate_spans(trace)
    if metrics is not None:
        document["metrics"] = metrics.get("metrics", {})
    if events is not None:
        names: dict[str, int] = {}
        for event in events:
            name = str(event.get("event"))
            names[name] = names.get(name, 0) + 1
        document["events"] = {"count": len(events), "dropped": events_dropped,
                              "by_name": names, "records": list(events)}
    if profile is not None and profile.get("sample_count"):
        document["profile"] = profile
    if incidents:
        document["incidents"] = list(incidents)
    if extra:
        document.update(extra)
    return document
