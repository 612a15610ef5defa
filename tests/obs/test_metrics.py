"""Unit tests for the metrics registry (:mod:`repro.obs.metrics`)."""

from __future__ import annotations

import pytest

from repro.obs import (
    NULL_METRICS,
    Counter,
    Gauge,
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

    def test_sink_swallows_everything(self):
        sink = NULL_METRICS.counter("a")
        sink.inc(10)
        sink.set(3.0)
        assert sink.value == 0
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

    def test_aggregate_spans_p95_is_nearest_rank(self):
        from repro.obs.analysis import aggregate_spans

        durations = [0.01 * i for i in range(1, 8)]
        trace = {"schema": "repro-trace/1", "traces": [
            {"name": "stage", "duration_s": duration, "children": []}
            for duration in durations
        ]}
        aggregate = aggregate_spans(trace)
        assert aggregate["stage"]["p95_s"] == nearest_rank(durations, 95)
