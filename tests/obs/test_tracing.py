"""Unit tests for the hierarchical span tracer (:mod:`repro.obs.tracing`)."""

from __future__ import annotations

import pytest

from repro.obs import NULL_TRACER, ObsContext, Span, Tracer, get_tracer, use_obs
from repro.obs.tracing import _NULL_SPAN


class TestSpan:
    def test_duration_and_closed(self):
        span = Span("work")
        assert not span.closed
        assert span.duration >= 0.0
        span.close()
        assert span.closed
        frozen = span.duration
        assert span.duration == frozen  # closing freezes the clock

    def test_close_is_idempotent(self):
        span = Span("work")
        span.close()
        end = span.end
        span.close()
        assert span.end == end

    def test_set_returns_self_and_overwrites(self):
        span = Span("work", {"a": 1})
        assert span.set(a=2, b="x") is span
        assert span.attributes == {"a": 2, "b": "x"}

    def test_find_depth_first(self):
        root = Span("root")
        mid = Span("mid")
        leaf = Span("leaf")
        root.children.append(mid)
        mid.children.append(leaf)
        assert root.find("leaf") is leaf
        assert root.find("mid") is mid
        assert root.find("absent") is None
        assert root.find("root") is None  # find looks at descendants only

    def test_iter_spans_preorder(self):
        root = Span("a")
        b, c = Span("b"), Span("c")
        root.children.extend([b, c])
        b.children.append(Span("d"))
        names = [s.name for s in root.iter_spans()]
        assert names == ["a", "b", "d", "c"]

    def test_to_dict_shape(self):
        root = Span("root", {"k": 1})
        root.children.append(Span("child"))
        root.close()
        data = root.to_dict()
        assert data["name"] == "root"
        assert data["attributes"] == {"k": 1}
        assert data["duration_s"] >= 0.0
        assert [c["name"] for c in data["children"]] == ["child"]


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert inner.closed and outer.closed

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]

    def test_exception_sets_error_attribute_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom") as sp:
                raise ValueError("no")
        assert sp.attributes["error"] == "ValueError"
        assert sp.closed
        assert tracer.current() is None

    def test_explicit_error_attribute_is_not_clobbered(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom") as sp:
                sp.set(error="custom")
                raise RuntimeError
        assert sp.attributes["error"] == "custom"

    def test_annotate_targets_current_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                tracer.annotate(states=5)
        assert inner.attributes == {"states": 5}
        tracer.annotate(ignored=True)  # outside any span: silently dropped

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.roots == []
        assert tracer.current() is None

    def test_to_dict_schema(self):
        tracer = Tracer()
        with tracer.span("a", k=1):
            pass
        data = tracer.to_dict()
        assert data["schema"] == "repro-trace/1"
        assert [t["name"] for t in data["traces"]] == ["a"]

    def test_out_of_order_exit_is_tolerated(self):
        tracer = Tracer()
        outer_handle = tracer.span("outer")
        outer = outer_handle.__enter__()
        inner_handle = tracer.span("inner")
        inner = inner_handle.__enter__()
        # Exit the outer span first; the stack above it is closed too.
        outer_handle.__exit__(None, None, None)
        assert inner.closed and outer.closed
        assert tracer.current() is None


class TestNullTracer:
    def test_span_returns_the_shared_noop(self):
        assert NULL_TRACER.span("x") is _NULL_SPAN
        assert NULL_TRACER.span("y", k=1) is _NULL_SPAN

    def test_noop_span_is_its_own_context_manager(self):
        with NULL_TRACER.span("x") as sp:
            assert sp.set(anything=1) is sp
            sp.close()
        assert sp.duration == 0.0 and sp.closed

    def test_disabled_flag_and_empty_export(self):
        assert NULL_TRACER.enabled is False
        assert Tracer.enabled is True
        assert NULL_TRACER.to_dict() == {"schema": "repro-trace/1", "traces": []}
        assert NULL_TRACER.current() is None
        NULL_TRACER.annotate(k=1)
        NULL_TRACER.clear()

    def test_exceptions_propagate_through_null_spans(self):
        with pytest.raises(KeyError):
            with NULL_TRACER.span("x"):
                raise KeyError("boom")


class TestAmbientInstallation:
    """The tracer field of the installed :class:`ObsContext`."""

    def test_default_is_the_null_tracer(self):
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_exit_and_error(self):
        tracer = Tracer()
        with use_obs(ObsContext(tracer=tracer)) as installed:
            assert installed.tracer is tracer
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER
        with pytest.raises(ValueError):
            with use_obs(ObsContext(tracer=tracer)):
                raise ValueError
        assert get_tracer() is NULL_TRACER
