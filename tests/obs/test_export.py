"""Unit tests for the trace/metrics exporters (:mod:`repro.obs.export`)."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    RunLedger,
    SamplingProfiler,
    Tracer,
    build_run_document,
    chrome_trace_document,
    observe,
    prometheus_text,
    render_metrics,
    render_trace,
    write_chrome_trace,
)


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("pipeline", workload="demo"):
        with tracer.span("derive", states=12):
            pass
        with tracer.span("solve", method="direct", residual=1.5e-13):
            pass
    return tracer


class TestJsonExport:
    def test_trace_to_json_is_serialisable(self):
        data = _sample_tracer().to_dict()
        text = json.dumps(data)
        parsed = json.loads(text)
        assert parsed["schema"] == "repro-trace/1"
        (root,) = parsed["traces"]
        assert root["name"] == "pipeline"
        assert [c["name"] for c in root["children"]] == ["derive", "solve"]
        assert root["children"][0]["attributes"] == {"states": 12}

    def test_metrics_to_json_is_serialisable(self):
        reg = MetricsRegistry()
        reg.counter("states_explored").inc(12)
        reg.gauge("residual").set(1e-13)
        parsed = json.loads(json.dumps(reg.as_dict()))
        assert parsed["schema"] == "repro-metrics/1"
        assert parsed["metrics"]["states_explored"]["value"] == 12
        assert parsed["metrics"]["residual"]["value"] == 1e-13

    def test_null_collectors_export_empty_documents(self):
        assert NULL_TRACER.to_dict()["traces"] == []
        assert NULL_METRICS.as_dict()["metrics"] == {}


def _recorded(tmp_path, **sections) -> dict:
    """A run document carrying ``sections``, through a ledger round-trip."""
    ledger = RunLedger(tmp_path / "runs")
    return ledger.load(ledger.record(build_run_document(command="x", **sections)))


class TestWriteTraceFile:
    """The trace and metrics a run records land in its run document."""

    def test_trace_only(self, tmp_path):
        document = _recorded(tmp_path, trace=_sample_tracer().to_dict())
        assert document["trace"]["schema"] == "repro-trace/1"
        assert "metrics" not in document

    def test_trace_with_metrics(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("transitions").inc(3)
        document = _recorded(tmp_path, trace=_sample_tracer().to_dict(),
                             metrics=reg.as_dict())
        assert document["metrics"]["transitions"]["value"] == 3

    def test_non_json_attributes_are_stringified(self, tmp_path):
        tracer = Tracer()
        with tracer.span("x", path=tmp_path):  # Path is not JSON-native
            pass
        document = _recorded(tmp_path, trace=tracer.to_dict())
        assert document["trace"]["traces"][0]["attributes"]["path"] == str(tmp_path)


class TestRenderTrace:
    def test_tree_layout(self):
        text = render_trace(_sample_tracer())
        lines = text.splitlines()
        assert lines[0].startswith("pipeline")
        assert "[workload=demo]" in lines[0]
        assert lines[1].startswith("|- derive")
        assert lines[2].startswith("`- solve")
        assert "ms" in lines[1]
        assert "method=direct" in lines[2]

    def test_deep_nesting_prefixes(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        lines = render_trace(tracer).splitlines()
        assert lines[1].startswith("`- b")
        assert lines[2].startswith("   `- c")

    def test_empty(self):
        assert render_trace(Tracer()) == "(no spans recorded)"
        assert render_trace(NULL_TRACER) == "(no spans recorded)"


class TestRenderMetrics:
    def test_table_layout(self):
        reg = MetricsRegistry()
        reg.counter("states_explored").inc(42)
        reg.gauge("residual").set(2.5e-14)
        text = render_metrics(reg.as_dict()["metrics"])
        assert "states_explored" in text
        assert "counter" in text
        assert "gauge" in text
        assert "2.5e-14" in text

    def test_empty(self):
        assert render_metrics({}) == "(no metrics recorded)"
        assert render_metrics(NULL_METRICS.as_dict()["metrics"]) == \
            "(no metrics recorded)"


class TestObserve:
    def test_yields_fresh_installed_collectors(self):
        from repro.obs import get_metrics, get_tracer

        with observe() as (tracer, metrics):
            assert get_tracer() is tracer
            assert get_metrics() is metrics
            with tracer.span("work"):
                metrics.counter("n").inc()
        assert get_tracer() is NULL_TRACER
        assert get_metrics() is NULL_METRICS
        assert [r.name for r in tracer.roots] == ["work"]
        assert metrics.counter("n").value == 1

    def test_nested_observations_compose(self):
        with observe() as (outer_tracer, _):
            with outer_tracer.span("outer"):
                pass
            with observe() as (inner_tracer, _):
                with inner_tracer.span("inner"):
                    pass
            assert [r.name for r in outer_tracer.roots] == ["outer"]
        assert [r.name for r in inner_tracer.roots] == ["inner"]


def span_doc(name, start, duration, *children, pid=0, tid=0, attrs=None):
    """A deterministic repro-trace/1 span node."""
    return {
        "name": name, "start_unix": start, "duration_s": duration,
        "pid": pid, "tid": tid, "attributes": attrs or {},
        "children": list(children),
    }


def _pipeline_trace():
    return {"schema": "repro-trace/1", "traces": [
        span_doc(
            "pipeline", 100.0, 1.0,
            span_doc("derive", 100.0, 0.4, attrs={"states": 12}),
            span_doc("solve", 100.4, 0.5, pid=7, tid=3,
                     attrs={"cpu_s": 0.45}),
            attrs={"workload": "demo"},
        ),
    ]}


def _sample_events():
    return [
        {"event": "solver.converged", "t_s": 0.9, "iterations": 17},
        {"event": "explore.progress", "t_s": 0.2, "states": 6},
    ]


def _sample_profile():
    profiler = SamplingProfiler(interval=0.005)
    profiler.record(("pipeline", "solve", "spmv"), count=3, t=0.41)
    profiler.record(("pipeline", "derive"), count=1, t=0.1)
    return profiler


REQUIRED_CHROME_KEYS = {"name", "ph", "ts", "pid", "tid"}


class TestChromeTrace:
    def test_every_event_carries_the_required_keys(self):
        document = chrome_trace_document(
            _pipeline_trace(), events=_sample_events(),
            profile=_sample_profile())
        assert document["traceEvents"]
        for event in document["traceEvents"]:
            assert REQUIRED_CHROME_KEYS <= set(event), event

    def test_spans_become_complete_events_in_microseconds(self):
        document = chrome_trace_document(_pipeline_trace())
        by_name = {e["name"]: e for e in document["traceEvents"]}
        assert by_name["pipeline"]["ph"] == "X"
        assert by_name["pipeline"]["ts"] == 100.0 * 1e6
        assert by_name["pipeline"]["dur"] == 1.0 * 1e6
        assert by_name["solve"]["pid"] == 7
        assert by_name["solve"]["tid"] == 3
        assert by_name["solve"]["args"] == {"cpu_s": 0.45}

    def test_pre_epoch_documents_get_a_synthesized_timeline(self):
        # a trace without start_unix (older schema revision): siblings
        # are laid out back to back from the parent's start
        old = {"schema": "repro-trace/1", "traces": [{
            "name": "root", "duration_s": 1.0, "children": [
                {"name": "a", "duration_s": 0.25, "children": []},
                {"name": "b", "duration_s": 0.5, "children": []},
            ],
        }]}
        by_name = {e["name"]: e
                   for e in chrome_trace_document(old)["traceEvents"]}
        assert by_name["root"]["ts"] == 0.0
        assert by_name["a"]["ts"] == 0.0
        assert by_name["b"]["ts"] == 0.25 * 1e6

    def test_events_render_as_instants_on_their_own_track(self):
        document = chrome_trace_document(
            _pipeline_trace(), events=_sample_events())
        instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 2
        converged = next(e for e in instants
                         if e["name"] == "solver.converged")
        assert converged["s"] == "t"
        assert converged["ts"] == (100.0 + 0.9) * 1e6  # epoch-anchored
        assert converged["args"] == {"iterations": 17}
        assert converged["tid"] == 1_000_001
        metas = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert any(m["args"]["name"] == "events" for m in metas)

    def test_profiler_timeline_renders_as_sample_events(self):
        document = chrome_trace_document(
            _pipeline_trace(), profile=_sample_profile())
        samples = [e for e in document["traceEvents"] if e["ph"] == "P"]
        assert len(samples) == 2
        assert all(e["tid"] == 1_000_002 for e in samples)
        assert samples[0]["args"]["stack"] == "pipeline;solve;spmv"

    def test_accepts_a_live_tracer(self):
        document = chrome_trace_document(_sample_tracer())
        names = [e["name"] for e in document["traceEvents"]]
        assert "pipeline" in names and "derive" in names

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            chrome_trace_document(42)

    def test_write_returns_event_count_and_is_loadable(self, tmp_path):
        path = tmp_path / "trace.chrome.json"
        count = write_chrome_trace(path, _pipeline_trace(),
                                   events=_sample_events())
        document = json.loads(path.read_text())
        assert count == len(document["traceEvents"]) == 3 + 1 + 2
        assert document["displayTimeUnit"] == "ms"

    def test_golden_chrome_document(self, golden):
        document = chrome_trace_document(
            _pipeline_trace(), events=_sample_events(),
            profile=_sample_profile().to_dict())
        golden("obs/chrome_trace", document)


class TestPrometheus:
    def _registry(self):
        metrics = MetricsRegistry()
        metrics.counter("states_explored").inc(42)
        metrics.gauge("solve.residual").set(1.5e-9)
        return metrics

    def test_counter_gains_total_suffix(self):
        text = prometheus_text(self._registry())
        assert "# TYPE repro_states_explored_total counter" in text
        assert "repro_states_explored_total 42" in text

    def test_names_are_sanitised(self):
        text = prometheus_text(self._registry())
        assert "repro_solve_residual 1.5e-09" in text
        assert "solve.residual" not in text.replace("HELP", "").split("#")[0]

    def test_snapshot_renders_like_the_live_registry(self):
        registry = self._registry()
        assert prometheus_text(registry.as_dict()) == prometheus_text(registry)

    def test_unset_gauge_is_skipped(self):
        metrics = MetricsRegistry()
        metrics.gauge("residual")  # created, never set
        assert prometheus_text(metrics) == ""

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""
        assert prometheus_text(NULL_METRICS) == ""

    def test_write_prometheus_file(self, tmp_path, capsys):
        from repro.choreographer.cli import main

        ledger = tmp_path / "runs"
        RunLedger(ledger).record(build_run_document(
            command="x", metrics=self._registry().as_dict()))
        path = tmp_path / "metrics.prom"
        assert main(["runs", "--ledger", str(ledger), "export",
                     "--prometheus", str(path)]) == 0
        text = path.read_text()
        assert text.endswith("\n")
        assert "repro_states_explored_total 42" in text

    def test_golden_prometheus_exposition(self, golden):
        golden("obs/prometheus",
               {"lines": prometheus_text(self._registry()).splitlines()})
