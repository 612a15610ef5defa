"""Span-time regression detection over the run ledger.

Every ``--ledger`` invocation records a ``repro-run/1`` document whose
``spans`` section holds per-span-name aggregates (``total_s`` per span
name, see :func:`repro.obs.analysis.aggregate_spans`).  Runs are
comparable when their ``config_fingerprint`` matches — the command,
model path, solver and the other identity-bearing options — so the
ledger's history of one configuration is a time series per span name.

:func:`detect_trend` judges the newest run of such a history against
the **median** of the earlier ones and classifies each span:

* **regression** — ``new > base * threshold`` *and* ``new - base >=
  min_seconds``.  Both gates are needed: a relative threshold alone
  flags a 0.3 ms span that doubled into 0.6 ms (pure scheduler noise),
  an absolute floor alone misses a 10 s span creeping up 20%;
* **improvement** — the mirror image (``new < base / threshold`` with
  the same absolute floor), reported but never fatal;
* span names present on only one side are listed as new or stale
  series, so a run that silently skipped a stage cannot masquerade as
  "no regressions".

``choreographer runs trend`` and ``runs compare`` are its command-line
gates; :func:`trend_markdown` renders the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "SpanDelta",
    "TrendReport",
    "detect_trend",
    "trend_markdown",
    "DEFAULT_THRESHOLD",
    "DEFAULT_MIN_SECONDS",
]

#: A span must slow down by this factor to count as a regression.
DEFAULT_THRESHOLD = 1.5
#: ... and by at least this many absolute seconds.  Sub-millisecond
#: spans double and halve with scheduler jitter; they are never
#: signal on their own.
DEFAULT_MIN_SECONDS = 0.05


@dataclass
class SpanDelta:
    """One span name's total time: historical median against newest."""

    span: str
    base_s: float
    new_s: float
    verdict: str  # "regression" | "improvement" | "ok"

    @property
    def ratio(self) -> float | None:
        return self.new_s / self.base_s if self.base_s > 0 else None

    def ratio_text(self) -> str:
        """The ratio for reports: ``"3.00x"``, or ``"new"`` from zero."""
        return f"{self.ratio:.2f}x" if self.ratio is not None else "new"


@dataclass
class TrendReport:
    """Regression verdict for the newest run of one configuration.

    ``command`` and ``fingerprint`` identify the configuration judged;
    ``run_ids`` are the runs that took part, oldest first, the newest
    last.  The median baseline makes one historically slow run (a
    loaded CI box) unable to mask — or fake — a regression the way a
    single-run baseline can.
    """

    threshold: float
    min_seconds: float
    command: str | None = None
    fingerprint: str | None = None
    run_ids: list[str] = field(default_factory=list)
    deltas: list[SpanDelta] = field(default_factory=list)
    new_series: list[str] = field(default_factory=list)
    stale_series: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[SpanDelta]:
        return [d for d in self.deltas if d.verdict == "regression"]

    @property
    def improvements(self) -> list[SpanDelta]:
        return [d for d in self.deltas if d.verdict == "improvement"]

    @property
    def ok(self) -> bool:
        """True when no span regressed against its historical median."""
        return not self.regressions


def _classify(base_s: float, new_s: float, threshold: float,
              min_seconds: float) -> str:
    if new_s > base_s * threshold and new_s - base_s >= min_seconds:
        return "regression"
    if new_s < base_s / threshold and base_s - new_s >= min_seconds:
        return "improvement"
    return "ok"


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _identity(document: dict[str, Any]) -> tuple[Any, Any]:
    # A batch run's inputs live in its task-list fingerprint, not its
    # config; every other command carries None there.
    return document.get("config_fingerprint"), document.get("tasks_fingerprint")


def _totals(document: dict[str, Any]) -> dict[str, float]:
    return {str(name): float(agg.get("total_s", 0.0))
            for name, agg in document["spans"].items()}


def detect_trend(
    run_documents: list[dict[str, Any]],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    window: int | None = None,
) -> TrendReport:
    """Judge the newest run's span times against its own history.

    ``run_documents`` are ``repro-run/1`` documents oldest-first (what
    :meth:`repro.obs.ledger.RunLedger.runs` returns).  The newest one
    with a ``spans`` section is judged; its history is every earlier
    document with spans and the same config fingerprint (and task-list
    fingerprint, for batch runs).  ``window`` keeps just the most
    recent *n* of those runs, the judged one included (``None`` = all
    history).  Each span name's ``total_s`` is classified against the
    median of its earlier values; a name first seen in the newest run
    is listed in ``new_series``, one missing from it in
    ``stale_series`` — reported, never fatal.  With fewer than two
    comparable runs there is no history and the report is trivially ok.
    """
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1.0, got {threshold}")
    if min_seconds < 0:
        raise ValueError(f"min_seconds must be >= 0, got {min_seconds}")
    report = TrendReport(threshold=threshold, min_seconds=min_seconds)
    spanned = [doc for doc in run_documents if doc.get("spans")]
    if not spanned:
        return report
    newest = spanned[-1]
    identity = _identity(newest)
    runs = [doc for doc in spanned if _identity(doc) == identity]
    if window is not None:
        runs = runs[-window:]
    report.command = newest.get("command")
    report.fingerprint = identity[0]
    report.run_ids = [str(doc.get("run_id", "?")) for doc in runs]
    if len(runs) < 2:
        return report

    series: dict[str, list[float]] = {}
    for doc in runs[:-1]:
        for name, total in _totals(doc).items():
            series.setdefault(name, []).append(total)
    latest = _totals(newest)
    for name in sorted(latest):
        if name not in series:
            report.new_series.append(name)
            continue
        baseline = _median(series[name])
        report.deltas.append(SpanDelta(
            span=name, base_s=baseline, new_s=latest[name],
            verdict=_classify(baseline, latest[name], threshold, min_seconds),
        ))
    report.stale_series = sorted(set(series) - set(latest))
    return report


def trend_markdown(report: TrendReport) -> str:
    """The trend verdict as a markdown document (the CI artifact)."""
    r = report
    lines = ["# Ledger span trend", ""]
    if not r.run_ids:
        lines += ["No run in the ledger carries span aggregates "
                  "(record one with `--ledger`).", ""]
        return "\n".join(lines)
    lines += [
        f"Command `{r.command}`, config `{(r.fingerprint or '')[:12]}`.",
        "",
        f"History: {len(r.run_ids)} run(s) "
        f"(ids: {', '.join(r.run_ids)}); newest judged against the "
        f"median of the earlier ones.",
        "",
        f"Gates: regression = slower than {r.threshold:.2f}x the "
        f"historical median **and** ≥ {r.min_seconds:g}s absolute.",
        "",
    ]
    if len(r.run_ids) < 2:
        lines.append("**Not enough history to trend** (need at least two "
                     "runs with the same config fingerprint).")
    elif r.ok:
        lines.append(
            f"**No regressions** across {len(r.deltas)} trended span "
            f"series."
        )
    else:
        lines.append(f"**{len(r.regressions)} REGRESSION(S) DETECTED:**")
        lines.append("")
        lines.append("| span | median s | latest s | ratio |")
        lines.append("|---|---|---|---|")
        for d in r.regressions:
            lines.append(f"| **{d.span}** | {d.base_s:.6f} | {d.new_s:.6f} "
                         f"| {d.ratio_text()} |")
    if r.improvements:
        lines.append("")
        lines.append(f"{len(r.improvements)} improvement(s):")
        lines.append("")
        for d in r.improvements:
            lines.append(f"- {d.span}: {d.base_s:.6f}s -> {d.new_s:.6f}s "
                         f"({d.ratio_text()})")
    for title, names in (("New series (first seen in the newest run)",
                          r.new_series),
                         ("Stale series (absent from the newest run)",
                          r.stale_series)):
        if names:
            lines.append("")
            lines.append(f"{title}:")
            lines.append("")
            for name in names:
                lines.append(f"- `{name}`")
    lines.append("")
    return "\n".join(lines)
