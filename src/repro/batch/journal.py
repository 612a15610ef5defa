"""The append-only run journal: checkpoint/resume for batch runs.

A long analysis batch is exactly the workload that dies at 90%: the
machine reboots, the OOM killer strikes, someone hits Ctrl-C.  The
journal makes that survivable.  As a supervised run proceeds, every
*final* per-task outcome (and every supervision incident along the
way) is appended to a JSONL file, one fsync'd line per record, so the
journal on disk is always a consistent prefix of the run — at worst
the line being written when the process died is torn, and a torn
trailing line is tolerated and ignored on load.

File layout (schema ``repro-journal/1``)::

    {"schema": "repro-journal/1", "fingerprint": "…", "tasks": [...]}
    {"record": "result", "result": {…}}
    {"record": "incident", "incident": {…}}
    ...

The header embeds the *full serialised task list* — ids, kinds,
payloads, budgets — so ``choreographer batch --resume JOURNAL`` needs
no other input: the journal alone reconstructs the run.  The
``fingerprint`` is :func:`repro.core.keys.stable_digest` over that
task list, letting :meth:`BatchEngine.resume` refuse a journal that
does not match a caller-supplied task list.

Resume semantics: completed results recorded in the journal are
*replayed* verbatim (the task is not re-run), tasks without a recorded
result are executed, and the merged report is assembled in original
task order — so a kill-resume-run produces measures JSON byte-identical
to an uninterrupted run, the property the chaos battery pins.
Quarantined results are deliberately *not* replayed: a resume is a
fresh chance for the tasks that crashed out.  If the same task
completes twice across resumed runs, the last record wins.

Incident records (retries, quarantines, pool rebuilds) are an audit
trail only — they never influence replay, and they accumulate across
resumed runs so the full failure history of a batch stays in one file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.core.keys import stable_digest
from repro.resilience.budget import BudgetSpec

__all__ = ["JOURNAL_SCHEMA", "RunJournal", "task_to_dict", "task_from_dict",
           "result_to_dict", "result_from_dict"]

JOURNAL_SCHEMA = "repro-journal/1"


# ---------------------------------------------------------------------------
# Task / result (de)serialisation
# ---------------------------------------------------------------------------
def task_to_dict(task) -> dict[str, Any]:
    """A JSON-able description of a :class:`~repro.batch.engine.BatchTask`."""
    document: dict[str, Any] = {
        "id": task.id, "kind": task.kind, "payload": task.payload,
    }
    if task.budget is not None:
        document["budget"] = {
            "deadline_seconds": task.budget.deadline_seconds,
            "max_states": task.budget.max_states,
            "check_every": task.budget.check_every,
        }
    return document


def task_from_dict(document: dict[str, Any]):
    """Rebuild a :class:`~repro.batch.engine.BatchTask` from its journal form."""
    from repro.batch.engine import BatchTask

    budget = document.get("budget")
    return BatchTask(
        id=document["id"],
        kind=document["kind"],
        payload=document.get("payload", {}),
        budget=BudgetSpec(
            deadline_seconds=budget.get("deadline_seconds"),
            max_states=budget.get("max_states"),
            check_every=budget.get("check_every", 64),
        ) if budget is not None else None,
    )


def result_to_dict(result) -> dict[str, Any]:
    """A JSON-able description of a :class:`~repro.batch.engine.BatchResult`."""
    return {
        "task_id": result.task_id,
        "kind": result.kind,
        "ok": result.ok,
        "measures": result.measures,
        "error": result.error,
        "error_context": result.error_context,
        "duration_s": result.duration_s,
        "attempts": result.attempts,
        "quarantined": result.quarantined,
        "trace": result.trace,
        "metrics": result.metrics,
        "events": result.events,
        "events_dropped": result.events_dropped,
        "profile": result.profile,
    }


def result_from_dict(document: dict[str, Any]):
    """Rebuild a :class:`~repro.batch.engine.BatchResult` from its journal form."""
    from repro.batch.engine import BatchResult

    return BatchResult(
        task_id=document["task_id"],
        kind=document["kind"],
        ok=document["ok"],
        measures=document.get("measures", {}),
        error=document.get("error"),
        error_context=document.get("error_context", {}),
        duration_s=document.get("duration_s", 0.0),
        attempts=document.get("attempts", 1),
        quarantined=document.get("quarantined", False),
        trace=document.get("trace", {"schema": "repro-trace/1", "traces": []}),
        metrics=document.get("metrics", {"schema": "repro-metrics/1", "metrics": {}}),
        events=document.get("events", []),
        events_dropped=document.get("events_dropped", 0),
        profile=document.get("profile", {}),
    )


def tasks_fingerprint(tasks: Iterable) -> str:
    """A stable digest over a task list (order-sensitive, budget-inclusive)."""
    return stable_digest({"tasks": [task_to_dict(task) for task in tasks]})


# ---------------------------------------------------------------------------
# The journal itself
# ---------------------------------------------------------------------------
@dataclass
class RunJournal:
    """One batch run's append-only checkpoint file.

    Create with :meth:`create` (writes the header) or :meth:`load` (an
    existing journal, for resume).  :meth:`append_result` /
    :meth:`append_incident` each write one line and fsync, so every
    completed task survives any subsequent crash.
    """

    path: Path
    tasks: list = field(default_factory=list)
    fingerprint: str = ""
    #: Final per-task results on record, keyed by task id (last wins).
    results: dict[str, Any] = field(default_factory=dict)
    #: Supervision incidents (retries, quarantines, pool rebuilds), in order.
    incidents: list[dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: str | os.PathLike, tasks: Iterable) -> "RunJournal":
        """Start a fresh journal: write the header line, fsync, return."""
        task_list = list(tasks)
        journal = cls(
            path=Path(path),
            tasks=task_list,
            fingerprint=tasks_fingerprint(task_list),
        )
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "schema": JOURNAL_SCHEMA,
            "fingerprint": journal.fingerprint,
            "tasks": [task_to_dict(task) for task in task_list],
        }
        with open(journal.path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        return journal

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RunJournal":
        """Read a journal back, tolerating a torn trailing line.

        Raises :class:`ValueError` on a missing/foreign header; a
        malformed *last* line (the one being written when the previous
        run died) is silently dropped; a malformed line anywhere else
        is real corruption and raises.
        """
        path = Path(path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines:
            raise ValueError(f"journal {path} is empty")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise ValueError(f"journal {path} has an unreadable header") from exc
        if not isinstance(header, dict) or header.get("schema") != JOURNAL_SCHEMA:
            raise ValueError(
                f"journal {path} is not a {JOURNAL_SCHEMA} file "
                f"(got schema {header.get('schema') if isinstance(header, dict) else None!r})"
            )
        journal = cls(
            path=path,
            tasks=[task_from_dict(doc) for doc in header.get("tasks", [])],
            fingerprint=header.get("fingerprint", ""),
        )
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines):
                    break  # torn trailing line: the crash we exist to survive
                raise ValueError(
                    f"journal {path} line {lineno} is corrupt (not trailing)"
                )
            kind = record.get("record")
            if kind == "result":
                result = result_from_dict(record["result"])
                journal.results[result.task_id] = result
            elif kind == "incident":
                journal.incidents.append(record["incident"])
            # Unknown record kinds are skipped: forward compatibility.
        return journal

    # ------------------------------------------------------------------
    def _append(self, record: dict[str, Any]) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def append_result(self, result) -> None:
        """Checkpoint one final per-task result (one fsync'd line)."""
        self._append({"record": "result", "result": result_to_dict(result)})
        self.results[result.task_id] = result

    def append_incident(self, incident: dict[str, Any]) -> None:
        """Record a supervision incident (retry/quarantine/pool rebuild)."""
        self._append({"record": "incident", "incident": incident})
        self.incidents.append(incident)

    # ------------------------------------------------------------------
    def replayable(self) -> dict[str, Any]:
        """Results safe to replay on resume: everything not quarantined.

        A quarantined task crashed out of its previous run; resume gives
        it a fresh chance rather than replaying the failure.
        """
        return {
            task_id: result
            for task_id, result in self.results.items()
            if not result.quarantined
        }

    def pending(self) -> list:
        """Tasks with no replayable result, in original task order."""
        done = self.replayable()
        return [task for task in self.tasks if task.id not in done]
