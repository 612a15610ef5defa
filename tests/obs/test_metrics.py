"""Unit tests for the metrics registry (:mod:`repro.obs.metrics`)."""

from __future__ import annotations

import pytest

from repro.obs import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObsContext,
    get_metrics,
    nearest_rank,
    use_obs,
)
from repro.obs.metrics import _NULL_INSTRUMENT


class TestCounter:
    def test_increments(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        c.inc(0)
        assert c.value == 5

    def test_rejects_negative(self):
        c = Counter("n")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)
        assert c.value == 0

    def test_as_dict(self):
        c = Counter("n")
        c.inc(3)
        assert c.as_dict() == {"type": "counter", "value": 3}


class TestGauge:
    def test_set_moves_both_ways(self):
        g = Gauge("residual")
        assert g.value is None
        g.set(1e-3)
        g.set(1e-12)
        assert g.value == 1e-12
        assert g.as_dict() == {"type": "gauge", "value": 1e-12}


class TestHistogram:
    def test_summary_statistics(self):
        h = Histogram("t")
        for v in (2.0, 8.0, 5.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 15.0
        assert h.min == 2.0
        assert h.max == 8.0
        assert h.mean == 5.0

    def test_empty_histogram(self):
        h = Histogram("t")
        assert h.mean is None
        assert h.as_dict() == {
            "type": "histogram",
            "count": 0,
            "sum": 0.0,
            "min": None,
            "max": None,
            "mean": None,
        }


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        c = reg.counter("states")
        c.inc(7)
        assert reg.counter("states") is c
        assert reg.counter("states").value == 7

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_container_protocol(self):
        reg = MetricsRegistry()
        assert len(reg) == 0
        assert "a" not in reg
        reg.gauge("b")
        reg.counter("a")
        assert "a" in reg and "b" in reg
        assert len(reg) == 2
        assert reg.names() == ["a", "b"]
        reg.clear()
        assert len(reg) == 0

    def test_as_dict_schema_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z").inc(1)
        reg.gauge("a").set(0.5)
        data = reg.as_dict()
        assert data["schema"] == "repro-metrics/1"
        assert list(data["metrics"]) == ["a", "z"]
        assert data["metrics"]["z"] == {"type": "counter", "value": 1}


class TestNullMetrics:
    def test_every_lookup_is_the_shared_sink(self):
        assert NULL_METRICS.counter("a") is _NULL_INSTRUMENT
        assert NULL_METRICS.gauge("b") is _NULL_INSTRUMENT
        assert NULL_METRICS.histogram("c") is _NULL_INSTRUMENT

    def test_sink_swallows_everything(self):
        sink = NULL_METRICS.counter("a")
        sink.inc(10)
        sink.set(3.0)
        sink.observe(1.0)
        assert sink.value == 0
        assert sink.count == 0
        assert sink.as_dict() == {}

    def test_empty_registry_protocol(self):
        assert "a" not in NULL_METRICS
        assert len(NULL_METRICS) == 0
        assert NULL_METRICS.names() == []
        assert NULL_METRICS.as_dict() == {"schema": "repro-metrics/1", "metrics": {}}


class TestAmbientInstallation:
    """The metrics field of the installed :class:`ObsContext`."""

    def test_default_is_null(self):
        assert get_metrics() is NULL_METRICS

    def test_use_metrics_restores(self):
        reg = MetricsRegistry()
        with use_obs(ObsContext(metrics=reg)):
            assert get_metrics() is reg
        assert get_metrics() is NULL_METRICS


class TestNearestRank:
    def test_single_sample_is_every_percentile(self):
        assert nearest_rank([7.0], 1) == 7.0
        assert nearest_rank([7.0], 50) == 7.0
        assert nearest_rank([7.0], 100) == 7.0

    def test_q100_is_the_maximum(self):
        assert nearest_rank([1.0, 2.0, 3.0], 100) == 3.0

    def test_exact_boundary_rank(self):
        # 20 samples: p95 rank = ceil(0.95 * 20) = 19 → the 19th value,
        # an observed sample, never an interpolation
        values = [float(i) for i in range(1, 21)]
        assert nearest_rank(values, 95) == 19.0
        assert nearest_rank(values, 90) == 18.0
        assert nearest_rank(values, 50) == 10.0

    def test_low_q_clamps_to_first_sample(self):
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 1) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 101)


class TestHistogramPercentiles:
    def test_percentile_matches_nearest_rank(self):
        histogram = Histogram("t")
        for value in (0.4, 0.1, 0.3, 0.2):  # unsorted on purpose
            histogram.observe(value)
        assert histogram.percentile(50) == 0.2
        assert histogram.percentile(95) == 0.4
        assert histogram.percentile(100) == 0.4

    def test_percentile_before_first_sample_is_none(self):
        assert Histogram("t").percentile(95) is None

    def test_summary_keys_and_values(self):
        histogram = Histogram("t")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary == {
            "count": 4, "sum": 10.0, "min": 1.0, "max": 4.0, "mean": 2.5,
            "p50": 2.0, "p90": 4.0, "p95": 4.0, "p99": 4.0,
            "samples_dropped": 0,
        }

    def test_sample_limit_degrades_percentiles_not_totals(self):
        histogram = Histogram("t", sample_limit=3)
        for value in (1.0, 2.0, 3.0, 100.0, 200.0):
            histogram.observe(value)
        # count/sum/min/max stay exact past the retention bound
        assert histogram.count == 5
        assert histogram.total == 306.0
        assert histogram.max == 200.0
        assert histogram.samples_dropped == 2
        # percentiles degrade to the retained prefix, flagged above
        assert histogram.percentile(100) == 3.0
        assert histogram.summary()["samples_dropped"] == 2

    def test_as_dict_still_excludes_percentiles(self):
        # snapshots merge across workers; percentiles don't merge
        histogram = Histogram("t")
        histogram.observe(1.0)
        assert "p95" not in histogram.as_dict()
        assert set(histogram.as_dict()) == \
               {"type", "count", "sum", "min", "max", "mean"}

    def test_aggregate_spans_and_histogram_agree_on_p95(self):
        from repro.obs.analysis import aggregate_spans

        durations = [0.01 * i for i in range(1, 8)]
        histogram = Histogram("t")
        trace = {"schema": "repro-trace/1", "traces": []}
        for duration in durations:
            histogram.observe(duration)
            trace["traces"].append({"name": "stage", "duration_s": duration,
                                    "children": []})
        aggregate = aggregate_spans(trace)
        assert aggregate["stage"]["p95_s"] == histogram.percentile(95)
