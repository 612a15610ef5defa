"""Trace analysis: critical path, aggregation, and run-to-run span
deltas — on hand-built span trees and on the bundled golden PDA traces."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import (
    ObsContext,
    Span,
    Tracer,
    aggregate_spans,
    build_run_document,
    critical_path,
    render_aggregate,
    render_critical_path,
    use_obs,
)
from repro.obs.regress import detect_trend, trend_markdown

GOLDENS = Path(__file__).resolve().parents[1] / "goldens"


def load_golden(name):
    return json.loads((GOLDENS / f"trace_pda_{name}.json").read_text())


def run_doc(trace):
    """A run document embedding ``trace`` (one config, so comparable)."""
    return build_run_document(command="analyse",
                              config={"command": "analyse"}, trace=trace)


def span_deltas(base, new):
    """What ``runs compare`` judges: per-span totals, new against base."""
    return detect_trend([run_doc(base), run_doc(new)], min_seconds=0.0)


def span_dict(name, duration, *children, attributes=None):
    return {
        "name": name,
        "duration_s": duration,
        "attributes": attributes or {},
        "children": list(children),
    }


@pytest.fixture
def pipeline_doc():
    """A hand-built two-root trace shaped like a real pipeline run."""
    return {
        "schema": "repro-trace/1",
        "traces": [
            span_dict(
                "diagram.activity", 10.0,
                span_dict("extract", 1.0),
                span_dict(
                    "solve", 8.0,
                    span_dict("pepa.statespace", 2.0),
                    span_dict("ctmc.assemble", 1.0),
                    span_dict("ctmc.solve", 4.5, attributes={"method": "gmres"}),
                ),
                span_dict("reflect", 0.5),
            ),
            span_dict("pipeline.write", 1.0),
        ],
    }


class TestCriticalPath:
    def test_follows_heaviest_chain(self, pipeline_doc):
        path = critical_path(pipeline_doc)
        assert [p["name"] for p in path] == \
            ["diagram.activity", "solve", "ctmc.solve"]

    def test_self_time_subtracts_children(self, pipeline_doc):
        path = critical_path(pipeline_doc)
        by_name = {p["name"]: p for p in path}
        assert by_name["diagram.activity"]["self_s"] == pytest.approx(0.5)
        assert by_name["solve"]["self_s"] == pytest.approx(0.5)
        assert by_name["ctmc.solve"]["self_s"] == pytest.approx(4.5)

    def test_share_is_relative_to_root(self, pipeline_doc):
        path = critical_path(pipeline_doc)
        assert path[0]["share"] == pytest.approx(1.0)
        assert path[-1]["share"] == pytest.approx(0.45)

    def test_attributes_are_carried(self, pipeline_doc):
        path = critical_path(pipeline_doc)
        assert path[-1]["attributes"] == {"method": "gmres"}

    def test_picks_heaviest_root(self, pipeline_doc):
        # pipeline.write (1.0) must lose to diagram.activity (10.0)
        assert critical_path(pipeline_doc)[0]["name"] == "diagram.activity"

    def test_empty_trace(self):
        assert critical_path({"schema": "repro-trace/1", "traces": []}) == []

    def test_accepts_live_tracer_and_span(self):
        tracer = Tracer()
        with use_obs(ObsContext(tracer=tracer)):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        path = critical_path(tracer)
        assert [p["name"] for p in path] == ["root", "child"]
        assert critical_path(tracer.roots[0])[0]["name"] == "root"

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            critical_path(42)


class TestAggregate:
    def test_counts_and_totals(self, pipeline_doc):
        agg = aggregate_spans(pipeline_doc)
        assert agg["diagram.activity"]["count"] == 1
        assert agg["solve"]["total_s"] == pytest.approx(8.0)
        # sorted by descending total time
        assert list(agg)[0] == "diagram.activity"

    def test_repeated_names_aggregate(self):
        doc = {"schema": "repro-trace/1", "traces": [
            span_dict("root", 10.0,
                      *[span_dict("ctmc.solve", float(i)) for i in range(1, 6)]),
        ]}
        agg = aggregate_spans(doc)
        stats = agg["ctmc.solve"]
        assert stats["count"] == 5
        assert stats["total_s"] == pytest.approx(15.0)
        assert stats["mean_s"] == pytest.approx(3.0)
        assert stats["max_s"] == pytest.approx(5.0)
        assert stats["p95_s"] == pytest.approx(5.0)  # nearest rank of 5 samples

    def test_p95_on_larger_sample(self):
        doc = {"schema": "repro-trace/1", "traces": [
            span_dict("s", float(i)) for i in range(1, 101)
        ]}
        assert aggregate_spans(doc)["s"]["p95_s"] == pytest.approx(95.0)

    def test_p95_of_a_single_span_is_the_span_itself(self):
        # nearest rank pins small n: ceil(0.95 * 1) = 1 → the only sample
        doc = {"schema": "repro-trace/1",
               "traces": [span_dict("s", 0.125)]}
        stats = aggregate_spans(doc)["s"]
        assert stats["p95_s"] == pytest.approx(0.125)
        assert stats["p95_s"] == stats["max_s"] == stats["mean_s"]

    def test_p95_of_two_spans_is_the_slower_one(self):
        # ceil(0.95 * 2) = 2 → the maximum, never an interpolation
        doc = {"schema": "repro-trace/1", "traces": [
            span_dict("s", 0.1), span_dict("s", 0.9),
        ]}
        assert aggregate_spans(doc)["s"]["p95_s"] == pytest.approx(0.9)

    def test_p95_exact_boundary(self):
        # n = 20: rank ceil(0.95 * 20) = 19 exactly — pins the ceil
        # (not round, not floor) choice in nearest_rank
        doc = {"schema": "repro-trace/1", "traces": [
            span_dict("s", float(i)) for i in range(1, 21)
        ]}
        assert aggregate_spans(doc)["s"]["p95_s"] == pytest.approx(19.0)

    def test_p95_agrees_with_the_shared_nearest_rank(self):
        from repro.obs.metrics import nearest_rank

        durations = [0.3, 0.1, 0.7, 0.5, 0.2]
        doc = {"schema": "repro-trace/1",
               "traces": [span_dict("s", d) for d in durations]}
        assert aggregate_spans(doc)["s"]["p95_s"] == \
               nearest_rank(sorted(durations), 95)


class TestDiff:
    """Span deltas between two run documents (``runs compare``)."""

    def test_biggest_mover_first_and_ratio(self, pipeline_doc):
        slower = json.loads(json.dumps(pipeline_doc))
        slower["traces"][0]["children"][1]["children"][2]["duration_s"] = 9.0
        (mover,) = span_deltas(pipeline_doc, slower).regressions
        assert mover.span == "ctmc.solve"
        assert mover.new_s - mover.base_s == pytest.approx(4.5)
        assert mover.ratio == pytest.approx(2.0)

    def test_identical_traces_have_zero_deltas(self, pipeline_doc):
        report = span_deltas(pipeline_doc, pipeline_doc)
        assert report.ok and report.deltas
        assert all(d.new_s - d.base_s == pytest.approx(0.0)
                   for d in report.deltas)

    def test_span_only_on_one_side(self, pipeline_doc):
        pruned = json.loads(json.dumps(pipeline_doc))
        pruned["traces"] = pruned["traces"][:1]  # drop pipeline.write
        report = span_deltas(pipeline_doc, pruned)
        assert report.stale_series == ["pipeline.write"]
        assert "pipeline.write" not in {d.span for d in report.deltas}
        assert span_deltas(pruned, pipeline_doc).new_series == ["pipeline.write"]

    def test_golden_pda_traces_diff_names_the_inflated_solver(self):
        report = span_deltas(load_golden("base"), load_golden("slow"))
        rows = {d.span: d for d in report.deltas}
        assert rows["ctmc.solve"].ratio == pytest.approx(2.0, rel=1e-6)
        # untouched stages stay put
        read = rows["pipeline.read"]
        assert read.new_s - read.base_s == pytest.approx(0.0, abs=1e-12)


class TestLoadTrace:
    """A run document embeds its trace whole and checks its schema."""

    def test_loads_golden(self):
        trace = load_golden("base")
        document = run_doc(trace)
        assert document["trace"] == trace
        assert "diagram.activity" in document["spans"]
        assert document["spans"] == aggregate_spans(trace)

    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            run_doc({"schema": "other/9"})


class TestRenderers:
    def test_render_critical_path(self, pipeline_doc):
        text = render_critical_path(critical_path(pipeline_doc))
        assert "critical path" in text
        assert "ctmc.solve" in text
        assert "%" in text

    def test_render_aggregate(self, pipeline_doc):
        text = render_aggregate(aggregate_spans(pipeline_doc))
        assert "span" in text and "p95 ms" in text
        assert "diagram.activity" in text

    def test_render_aggregate_orders_heaviest_first(self, pipeline_doc):
        # a stored document keeps its spans keyed by name, not by weight
        by_name = dict(sorted(aggregate_spans(pipeline_doc).items()))
        text = render_aggregate(by_name)
        assert text == render_aggregate(aggregate_spans(pipeline_doc))
        assert text.splitlines()[2].startswith("diagram.activity")

    def test_render_diff(self, pipeline_doc):
        slower = json.loads(json.dumps(pipeline_doc))
        slower["traces"][0]["children"][1]["children"][2]["duration_s"] = 9.0
        text = trend_markdown(span_deltas(pipeline_doc, slower))
        assert "| ratio |" in text
        assert "| **ctmc.solve** |" in text and "2.00x" in text

    def test_empty_renderings(self):
        assert render_critical_path([]) == "(empty trace)"
        assert render_aggregate({}) == "(empty trace)"
