"""Span-time regression detection over ledger run documents: median
baseline, dual noise gates, config-fingerprint history, window, new and
stale series, and the markdown report."""

from __future__ import annotations

import pytest

from repro.obs.regress import detect_trend, trend_markdown

BASE_TOTALS = {"pepa": 1.2, "pepa.derive": 0.4, "ctmc.assemble": 0.2,
               "ctmc.solve": 0.6}


def run_doc(run_id, totals=None, *, fingerprint="cfg-a", command="pepa",
            **extra):
    """A minimal repro-run/1 document carrying per-span aggregates;
    ``totals=False`` leaves the spans section out."""
    document = {"schema": "repro-run/1", "run_id": run_id,
                "command": command, "config_fingerprint": fingerprint,
                **extra}
    if totals is not False:
        document["spans"] = {
            name: {"count": 1, "total_s": total, "mean_s": total,
                   "p95_s": total, "max_s": total}
            for name, total in (totals or BASE_TOTALS).items()
        }
    return document


def scaled(factor, span=None):
    """BASE_TOTALS with every (or one) span total scaled by ``factor``."""
    return {name: total * factor if span in (None, name) else total
            for name, total in BASE_TOTALS.items()}


class TestTrend:
    def test_fewer_than_two_comparable_runs_is_trivially_ok(self):
        assert detect_trend([]).ok
        assert detect_trend([run_doc("000001")]).ok
        # run documents without span aggregates don't count as history
        report = detect_trend([run_doc("000001", totals=False),
                               run_doc("000002")])
        assert report.ok and report.run_ids == ["000002"]
        assert report.deltas == []

    def test_identical_history_is_clean(self):
        report = detect_trend([run_doc(f"{i:06d}") for i in range(1, 4)])
        assert report.ok
        assert report.regressions == []
        assert len(report.deltas) == len(BASE_TOTALS)
        assert (report.command, report.fingerprint) == ("pepa", "cfg-a")

    def test_injected_3x_slowdown_names_the_span(self):
        history = [run_doc("000001"), run_doc("000002")]
        slow = run_doc("000003", scaled(3.0, span="ctmc.solve"))
        report = detect_trend(history + [slow])
        assert not report.ok
        assert [d.span for d in report.regressions] == ["ctmc.solve"]
        [delta] = report.regressions
        assert delta.ratio == pytest.approx(3.0)

    def test_absolute_floor_suppresses_sub_millisecond_doubling(self):
        fast = {"ctmc.solve": 0.0003}
        report = detect_trend([run_doc("000001", fast),
                               run_doc("000002", {"ctmc.solve": 0.0006})])
        assert report.ok
        assert report.deltas[0].ratio == pytest.approx(2.0)

    def test_relative_threshold_suppresses_small_creep_on_big_span(self):
        report = detect_trend([run_doc("000001", {"ctmc.solve": 10.0}),
                               run_doc("000002", {"ctmc.solve": 12.0})])
        assert report.ok  # +2 s clears the floor, 1.2x not the threshold

    def test_improvements_are_reported_but_not_fatal(self):
        report = detect_trend([run_doc("000001"),
                               run_doc("000002", scaled(0.25, "ctmc.solve"))])
        assert report.ok
        assert [d.span for d in report.improvements] == ["ctmc.solve"]

    def test_median_baseline_shrugs_off_one_slow_historical_run(self):
        # one loaded-CI-box outlier in the history must not drag the
        # baseline up (masking) — the median ignores it
        history = [run_doc("000001"), run_doc("000002", scaled(10.0)),
                   run_doc("000003")]
        assert detect_trend(history + [run_doc("000004")]).ok
        slow = run_doc("000004", scaled(3.0, span="ctmc.solve"))
        assert not detect_trend(history + [slow]).ok

    def test_window_limits_the_history(self):
        # old fast runs fall outside the window: judged only against
        # the recent (already slow) plateau, the newest run is fine
        old = [run_doc(f"{i:06d}") for i in (1, 2, 3)]
        plateau = [run_doc("000004", scaled(3.0)),
                   run_doc("000005", scaled(3.0))]
        newest = run_doc("000006", scaled(3.0))
        assert not detect_trend(old + plateau + [newest]).ok
        windowed = detect_trend(old + plateau + [newest], window=3)
        assert windowed.ok
        assert windowed.run_ids == ["000004", "000005", "000006"]

    def test_history_is_the_newest_runs_config_fingerprint_only(self):
        fast = [run_doc("000001"), run_doc("000002")]
        other = run_doc("000003", scaled(3.0), fingerprint="cfg-b",
                        command="net")
        # newest is the only cfg-b run: no history, whatever came before
        report = detect_trend(fast + [other])
        assert report.ok and report.run_ids == ["000003"]
        assert report.command == "net"
        # a cfg-a run after it is judged against cfg-a runs alone
        slow = run_doc("000004", scaled(3.0, span="ctmc.solve"))
        report = detect_trend(fast + [other, slow])
        assert report.run_ids == ["000001", "000002", "000004"]
        assert [d.span for d in report.regressions] == ["ctmc.solve"]

    def test_batch_runs_over_other_tasks_are_not_history(self):
        a = run_doc("000001", command="batch", tasks_fingerprint="tasks-1")
        b = run_doc("000002", scaled(3.0), command="batch",
                    tasks_fingerprint="tasks-2")
        assert detect_trend([a, b]).run_ids == ["000002"]

    def test_new_and_stale_series_reported_not_fatal(self):
        renamed = dict(BASE_TOTALS)
        renamed["brand.new"] = renamed.pop("pepa.derive") * 10
        report = detect_trend([run_doc("000001"),
                               run_doc("000002", renamed)])
        assert report.ok
        assert report.new_series == ["brand.new"]
        assert report.stale_series == ["pepa.derive"]

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            detect_trend([], threshold=1.0)
        with pytest.raises(ValueError):
            detect_trend([], min_seconds=-1)


class TestTrendMarkdown:
    def test_clean_report(self):
        report = detect_trend([run_doc("000001"), run_doc("000002")])
        text = trend_markdown(report)
        assert "No regressions" in text
        assert "000001" in text and "000002" in text
        assert "`pepa`" in text and "`cfg-a`" in text

    def test_regression_table_names_the_offender(self):
        report = detect_trend([
            run_doc("000001"), run_doc("000002"),
            run_doc("000003", scaled(3.0, span="ctmc.solve")),
        ])
        text = trend_markdown(report)
        assert "REGRESSION" in text
        assert "| **ctmc.solve** |" in text
        assert "3.00x" in text

    def test_short_history_message(self):
        text = trend_markdown(detect_trend([run_doc("000001")]))
        assert "Not enough history" in text
        text = trend_markdown(detect_trend([run_doc("000001", totals=False)]))
        assert "No run in the ledger carries span aggregates" in text

    def test_new_and_stale_series_are_listed(self):
        renamed = dict(BASE_TOTALS)
        renamed["brand.new"] = renamed.pop("pepa.derive")
        text = trend_markdown(detect_trend([run_doc("000001"),
                                            run_doc("000002", renamed)]))
        assert "New series" in text and "brand.new" in text
        assert "Stale series" in text and "pepa.derive" in text
