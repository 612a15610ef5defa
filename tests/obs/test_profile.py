"""The sampling profiler: deterministic sample folding, live sampling
attributed to the current span stack, and the resource probe's exact
per-span accounting."""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import (
    ObsContext,
    ProfileConfig,
    SamplingProfiler,
    SpanResourceProbe,
    Tracer,
    collapsed_text,
    use_obs,
)
from repro.obs.profile import DEFAULT_INTERVAL, PROFILE_SCHEMA


class TestProfileConfig:
    def test_defaults(self):
        config = ProfileConfig()
        assert config.interval == DEFAULT_INTERVAL
        assert config.memory is False

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError, match="interval"):
            ProfileConfig(interval=0)
        with pytest.raises(ValueError, match="interval"):
            ProfileConfig(interval=-0.1)

    def test_frozen_and_picklable(self):
        import pickle

        config = ProfileConfig(interval=0.01, memory=True)
        with pytest.raises(Exception):
            config.interval = 0.02
        assert pickle.loads(pickle.dumps(config)) == config


class TestDeterministicRecording:
    def test_record_folds_counts(self):
        profiler = SamplingProfiler(interval=0.001)
        profiler.record(("a", "b"), count=2, t=0.0)
        profiler.record(("a", "b"), t=0.001)
        profiler.record(("a", "c"), t=0.002)
        assert profiler.samples == {("a", "b"): 3, ("a", "c"): 1}
        assert profiler.sample_count == 4

    def test_collapsed_format_is_sorted_semicolon_lines(self):
        profiler = SamplingProfiler()
        profiler.record(("z", "tail"), t=0.0)
        profiler.record(("a", "head"), count=4, t=0.0)
        assert profiler.collapsed() == "a;head 4\nz;tail 1\n"

    def test_collapsed_empty(self):
        assert SamplingProfiler().collapsed() == ""

    def test_to_dict_schema(self):
        profiler = SamplingProfiler(interval=0.002)
        profiler.record(("main", "solve"), count=3, t=0.5)
        document = profiler.to_dict()
        assert document["schema"] == PROFILE_SCHEMA
        assert document["interval_s"] == 0.002
        assert document["sample_count"] == 3
        assert document["samples"] == {"main;solve": 3}
        assert document["timeline"] == [[0.5, "main;solve"]]
        assert document["timeline_dropped"] == 0

    def test_timeline_is_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.obs.profile.TIMELINE_CAPACITY", 2)
        profiler = SamplingProfiler()
        for i in range(5):
            profiler.record(("f",), t=float(i))
        assert len(profiler.timeline) == 2
        assert profiler.timeline_dropped == 3
        # the aggregated counters stay exact past the timeline bound
        assert profiler.samples[("f",)] == 5

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError, match="interval"):
            SamplingProfiler(interval=0)

    def test_collapsed_text_renders_a_document(self):
        profiler = SamplingProfiler()
        profiler.record(("a", "b"), count=2, t=0.0)
        assert collapsed_text(profiler.to_dict()) == "a;b 2\n"
        assert collapsed_text({"samples": {}}) == ""


class TestLiveSampling:
    def test_samples_are_prefixed_with_ambient_span_stack(self):
        tracer = Tracer()
        profiler = SamplingProfiler(interval=0.001, tracer=tracer)
        deadline = time.perf_counter() + 0.25
        with use_obs(ObsContext(tracer=tracer)), tracer.span("stage.busy"), profiler:
            while time.perf_counter() < deadline and profiler.sample_count == 0:
                sum(range(1000))  # keep the target thread busy
        assert profiler.sample_count > 0
        assert any(stack[0] == "stage.busy" for stack in profiler.samples)

    def test_context_manager_stops_the_thread(self):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            assert profiler._thread is not None
        assert profiler._thread is None
        count = profiler.sample_count
        time.sleep(0.01)
        assert profiler.sample_count == count  # no sampling after stop

    def test_start_is_idempotent(self):
        profiler = SamplingProfiler(interval=0.001)
        try:
            thread = profiler.start()._thread
            assert profiler.start()._thread is thread
        finally:
            profiler.stop()
        assert threading.active_count() >= 1  # the daemon really joined

    def test_other_thread_can_be_targeted(self):
        stop = threading.Event()

        def busy():
            while not stop.is_set():
                sum(range(1000))

        worker = threading.Thread(target=busy, daemon=True)
        worker.start()
        profiler = SamplingProfiler(interval=0.001,
                                    target_thread=worker.ident)
        deadline = time.perf_counter() + 0.25
        with profiler:
            while time.perf_counter() < deadline and profiler.sample_count == 0:
                time.sleep(0.005)
        stop.set()
        worker.join()
        assert profiler.sample_count > 0


class TestSpanResourceProbe:
    def test_cpu_is_stamped_on_closed_spans(self):
        tracer = Tracer(probe=SpanResourceProbe())
        with tracer.span("work"):
            sum(range(10_000))
        (root,) = tracer.roots
        assert "cpu_s" in root.attributes
        assert root.attributes["cpu_s"] >= 0

    def test_memory_mode_stamps_allocation_and_peak(self):
        probe = SpanResourceProbe(memory=True)
        try:
            tracer = Tracer(probe=probe)
            with tracer.span("alloc"):
                keep = [bytearray(64 * 1024)]
            del keep
        finally:
            probe.close()
        (root,) = tracer.roots
        assert root.attributes["mem_peak_kib"] >= 64
        assert "mem_alloc_kib" in root.attributes

    def test_memory_probe_stops_tracemalloc_it_started(self):
        import tracemalloc

        assert not tracemalloc.is_tracing()
        probe = SpanResourceProbe(memory=True)
        assert tracemalloc.is_tracing()
        probe.close()
        assert not tracemalloc.is_tracing()

    def test_no_probe_means_no_cpu_attribute(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        (root,) = tracer.roots
        assert "cpu_s" not in root.attributes
