"""Span tracing: causal ids, cost accounting, the disabled fast path,
and the bounded ring with its eviction counter."""

from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import _NULL_SPAN, TraceContext, Tracer


def _tracer(max_spans: int = 100) -> Tracer:
    registry = MetricsRegistry()
    registry.enable()
    return Tracer(registry, max_spans=max_spans)


def test_disabled_tracer_returns_shared_null_span():
    tracer = Tracer(MetricsRegistry())
    span = tracer.span("anything", key="value")
    assert span is _NULL_SPAN
    with span as inner:
        inner.set_attribute("k", 1)  # absorbed silently
        inner.add_cost("cipher_calls", 3)  # likewise
    assert tracer.finished() == []


def test_disabled_add_cost_is_noop():
    tracer = Tracer(MetricsRegistry())
    tracer.add_cost("cipher_calls")  # must not raise, must not record
    assert tracer.finished() == []
    assert tracer.current() is None


def test_trace_context_child_inherits_trace_and_links_parent():
    parent = TraceContext(trace_id=7, span_id=1, parent_id=None)
    child = parent.child(span_id=2)
    assert child.trace_id == 7
    assert child.span_id == 2
    assert child.parent_id == 1


def test_span_records_name_attributes_duration_and_ids():
    tracer = _tracer()
    with tracer.span("query.point", table="t", column="c"):
        pass
    (span,) = tracer.finished()
    assert span.name == "query.point"
    assert span.attributes == {"table": "t", "column": "c"}
    assert span.duration is not None and span.duration >= 0.0
    assert span.parent_id is None
    assert isinstance(span.trace_id, int) and isinstance(span.span_id, int)


def test_nested_spans_share_trace_and_link_parent_ids():
    tracer = _tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    finished = {span.name: span for span in tracer.finished()}
    outer, inner = finished["outer"], finished["inner"]
    assert outer.parent_id is None
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id
    assert inner.span_id != outer.span_id


def test_sibling_roots_get_distinct_trace_ids():
    tracer = _tracer()
    with tracer.span("first"):
        pass
    with tracer.span("second"):
        pass
    first, second = tracer.finished()
    assert first.trace_id != second.trace_id


def test_set_attribute_after_open():
    tracer = _tracer()
    with tracer.span("op") as span:
        span.set_attribute("rows", 7)
    (finished,) = tracer.finished()
    assert finished.attributes["rows"] == 7


def test_add_cost_charges_innermost_span():
    tracer = _tracer()
    with tracer.span("outer"):
        tracer.add_cost("cipher_calls", 2)
        with tracer.span("inner"):
            tracer.add_cost("cipher_calls")
            tracer.add_cost("cipher_calls", 4)
    finished = {span.name: span for span in tracer.finished()}
    assert finished["outer"].costs == {"cipher_calls": 2}
    assert finished["inner"].costs == {"cipher_calls": 5}


def test_current_tracks_the_active_span():
    tracer = _tracer()
    assert tracer.current() is None
    with tracer.span("outer"):
        assert tracer.current().name == "outer"
        with tracer.span("inner"):
            assert tracer.current().name == "inner"
        assert tracer.current().name == "outer"
    assert tracer.current() is None


def test_ring_drops_oldest_first_when_full_and_counts_evictions():
    registry = MetricsRegistry()
    registry.enable()
    tracer = Tracer(registry, max_spans=10)
    for i in range(10):
        with tracer.span(f"s{i}"):
            pass
    assert len(tracer.finished()) == 10
    for name in ("overflow", "again"):
        with tracer.span(name):
            pass
    names = [span.name for span in tracer.finished()]
    # Each overflow evicts exactly the oldest span; the ring stays full.
    assert names == [f"s{i}" for i in range(2, 10)] + ["overflow", "again"]
    assert tracer.dropped == 2
    assert registry.snapshot()["counters"]["trace.spans_dropped"] == 2


def test_reset_clears_ring_and_dropped():
    tracer = _tracer(max_spans=4)
    for i in range(6):
        with tracer.span(f"s{i}"):
            pass
    tracer.reset()
    assert tracer.finished() == []
    assert tracer.dropped == 0


def test_snapshot_is_json_shaped():
    tracer = _tracer()
    with tracer.span("op", n=1) as span:
        span.add_cost("cipher_calls", 2)
    (entry,) = tracer.snapshot()
    assert entry["name"] == "op"
    assert entry["attributes"] == {"n": 1}
    assert entry["parent_id"] is None
    assert isinstance(entry["trace_id"], int)
    assert isinstance(entry["span_id"], int)
    assert entry["costs"] == {"cipher_calls": 2}
    assert entry["duration_seconds"] >= 0.0
