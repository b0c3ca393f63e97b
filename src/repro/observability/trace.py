"""Causal span tracing for query-path introspection and cost attribution.

A *span* is a named, timed region of execution carrying a
:class:`TraceContext` — trace id, span id, parent span id — so nested
spans form a tree rooted at the query entry point (Dapper-style causal
tracing).  One point query produces ``query.point`` over
``index.descent`` over per-cell ``cell.decrypt`` spans, and every
primitive invocation inside the tree is attributable to exactly one
root query span.

Besides wall time, spans accumulate *costs*: integer counters charged
to the innermost active span on the current thread via
:meth:`Tracer.add_cost`.  The instrumentation wrappers charge
``cipher_calls`` (measured blockcipher invocations, the Sect. 4 unit of
account) and ``cipher_calls_predicted`` (the analytic expectation from
the paper's formulas), which is what lets ``repro explain`` cross-check
the overhead model per query instead of per run.

The tracer stays zero-dependency and off by default: the disabled path
is a single boolean test returning a shared no-op span, and hot call
sites guard with ``if TRACER.enabled:`` so the disabled path allocates
nothing.  Finished spans live in a bounded ring — benchmark runs are
long, and tracing must never become the memory hog it is meant to
find; each eviction drops the oldest span and is counted in the
``trace.spans_dropped`` metric rather than dropped silently.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

from repro.observability.flightrecorder import Ring
from repro.observability.metrics import REGISTRY, MetricsRegistry


@dataclass(frozen=True)
class TraceContext:
    """Causal identity of one span: which trace, which span, which parent."""

    trace_id: int
    span_id: int
    parent_id: int | None

    def child(self, span_id: int) -> "TraceContext":
        """The context a direct child span inherits."""
        return TraceContext(self.trace_id, span_id, self.span_id)


class Span:
    """One finished (or in-flight) traced region."""

    __slots__ = (
        "name",
        "attributes",
        "context",
        "costs",
        "thread_id",
        "start",
        "duration",
    )

    def __init__(self, name: str, attributes: dict, context: TraceContext) -> None:
        self.name = name
        self.attributes = attributes
        self.context = context
        self.costs: dict[str, int] = {}
        self.thread_id = threading.get_ident()
        self.start = time.perf_counter()
        self.duration: float | None = None

    @property
    def trace_id(self) -> int:
        return self.context.trace_id

    @property
    def span_id(self) -> int:
        return self.context.span_id

    @property
    def parent_id(self) -> int | None:
        return self.context.parent_id

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def add_cost(self, key: str, amount: int) -> None:
        self.costs[key] = self.costs.get(key, 0) + amount

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_id": self.context.parent_id,
            "thread_id": self.thread_id,
            "start_seconds": self.start,
            "duration_seconds": self.duration,
            "attributes": self.attributes,
            "costs": self.costs,
        }


class _NullSpan:
    """The span handed out while tracing is disabled: absorbs everything."""

    __slots__ = ()

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def add_cost(self, key: str, amount: int) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager pushing a real span on this thread's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def set_attribute(self, key: str, value: object) -> None:
        self._span.set_attribute(key, value)

    def add_cost(self, key: str, amount: int) -> None:
        self._span.add_cost(key, amount)

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._stack().append(self._span)
        return self

    def __exit__(self, *exc_info: object) -> None:
        stack = self._tracer._stack()
        if stack and stack[-1] is self._span:
            stack.pop()
        self._span.duration = time.perf_counter() - self._span.start
        self._tracer._record(self._span)


class Tracer:
    """Span factory bound to a :class:`MetricsRegistry`'s on/off switch."""

    def __init__(
        self, registry: MetricsRegistry | None = None, max_spans: int = 10_000
    ) -> None:
        self._registry = registry if registry is not None else REGISTRY
        self._local = threading.local()
        self._finished = Ring(max_spans)
        self._ids = itertools.count(1)

    @property
    def enabled(self) -> bool:
        return self._registry.enabled

    @property
    def dropped(self) -> int:
        return sum(self._finished.drops.values())

    def span(self, name: str, **attributes: object):
        """Open a span; use as ``with tracer.span("query.point") as s:``.

        A span opened with no active span on this thread roots a new
        trace; children inherit the trace id and link to their parent's
        span id, so concurrent queries on separate threads build
        disjoint trees.
        """
        if not self._registry.enabled:
            return _NULL_SPAN
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            context = stack[-1].context.child(span_id)
        else:
            context = TraceContext(next(self._ids), span_id, None)
        return _ActiveSpan(self, Span(name, dict(attributes), context))

    def current(self) -> Span | None:
        """The innermost active span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def add_cost(self, key: str, amount: int = 1) -> None:
        """Charge ``amount`` to this thread's innermost active span.

        Self-cost accounting: a parent's own total is the sum over its
        subtree, computed at read time by :mod:`repro.observability.profile`.
        No-op when tracing is disabled or no span is active; the call
        itself allocates nothing, but hot paths should still guard with
        ``if TRACER.enabled:`` to skip argument evaluation.
        """
        if not self._registry.enabled:
            return
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1].add_cost(key, amount)

    def finished(self) -> list[Span]:
        return self._finished.items()

    def reset(self) -> None:
        self._finished.clear()

    def snapshot(self) -> list[dict]:
        return [span.to_dict() for span in self.finished()]

    # -- internals ----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> None:
        if self._finished.append(span):
            self._registry.counter("trace.spans_dropped").inc()


#: The process-wide tracer, sharing the metrics registry's switch.
TRACER = Tracer(REGISTRY)
