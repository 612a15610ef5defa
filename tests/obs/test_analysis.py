"""Trace analysis: critical path, aggregation, diff — on hand-built
span trees and on the bundled golden PDA traces."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import (
    ObsContext,
    Span,
    Tracer,
    aggregate_spans,
    critical_path,
    diff_traces,
    load_trace,
    render_aggregate,
    render_critical_path,
    render_trace_diff,
    use_obs,
)

GOLDENS = Path(__file__).resolve().parents[1] / "goldens"


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
    def test_biggest_mover_first_and_ratio(self, pipeline_doc):
        slower = json.loads(json.dumps(pipeline_doc))
        slower["traces"][0]["children"][1]["children"][2]["duration_s"] = 9.0
        rows = diff_traces(pipeline_doc, slower)
        assert rows[0]["name"] == "ctmc.solve"
        assert rows[0]["delta_s"] == pytest.approx(4.5)
        assert rows[0]["ratio"] == pytest.approx(2.0)

    def test_identical_traces_have_zero_deltas(self, pipeline_doc):
        rows = diff_traces(pipeline_doc, pipeline_doc)
        assert all(r["delta_s"] == pytest.approx(0.0) for r in rows)

    def test_span_only_on_one_side(self, pipeline_doc):
        pruned = json.loads(json.dumps(pipeline_doc))
        pruned["traces"] = pruned["traces"][:1]  # drop pipeline.write
        rows = {r["name"]: r for r in diff_traces(pipeline_doc, pruned)}
        gone = rows["pipeline.write"]
        assert gone["new_s"] is None
        assert gone["ratio"] is None
        assert gone["delta_s"] == pytest.approx(-1.0)

    def test_golden_pda_traces_diff_names_the_inflated_solver(self):
        base = load_trace(GOLDENS / "trace_pda_base.json")
        slow = load_trace(GOLDENS / "trace_pda_slow.json")
        rows = {r["name"]: r for r in diff_traces(base, slow)}
        assert rows["ctmc.solve"]["ratio"] == pytest.approx(2.0, rel=1e-6)
        # untouched stages stay put
        assert rows["pipeline.read"]["delta_s"] == pytest.approx(0.0, abs=1e-12)


class TestLoadTrace:
    def test_loads_golden(self):
        document = load_trace(GOLDENS / "trace_pda_base.json")
        assert document["schema"] == "repro-trace/1"
        assert any(t["name"] == "diagram.activity" for t in document["traces"])

    def test_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/9"}')
        with pytest.raises(ValueError):
            load_trace(bad)


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

    def test_render_diff(self, pipeline_doc):
        text = render_trace_diff(diff_traces(pipeline_doc, pipeline_doc))
        assert "ratio" in text
        assert "1.00x" in text

    def test_empty_renderings(self):
        assert render_critical_path([]) == "(empty trace)"
        assert render_aggregate({}) == "(empty trace)"
        assert render_trace_diff([]) == "(both traces empty)"
