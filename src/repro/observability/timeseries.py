"""Labeled time-series telemetry: bounded ring buffers on a logical clock.

The metrics registry answers "what happened in this run"; nothing so far
watches the system *evolve* — per-shard re-encryption progress during an
online rotation, WAL replay frequency across crash-campaign mounts, or
Sect. 4 drift accumulating over a long workload.  This module adds that
axis: a :class:`TelemetryHub` holding named series, each a bounded ring
buffer of ``(tick, value)`` samples under a frozen label set (``shard``,
``scheme``, ``rotation_phase``, …).

Design constraints, matching the rest of the observability stack:

1. **Off by default.**  ``HUB.enabled`` is the metrics registry's
   switch, as the tracer's is, and every record path begins with that
   one check; instrumented call sites additionally guard with
   ``if HUB.enabled:`` so the disabled hot path is a single boolean
   test and allocates nothing.
2. **No wall clock.**  Time is the hub's *logical tick*, advanced only
   by an explicit :meth:`TelemetryHub.tick` call (the rotation state
   machine ticks at its protocol write boundaries; the monitor ticks
   between scenario stages).  Two runs of the same seeded workload
   produce byte-identical snapshots — wall-clock-derived values must be
   recorded with ``volatile=True`` and are excluded from deterministic
   snapshots.
3. **Bounded memory.**  A series retains at most ``capacity`` samples;
   older samples are dropped oldest-first and the drop count is
   reported, never hidden.
4. **Byte-neutral.**  Enabling the hub changes no stored byte (pinned
   by the golden-hash tests in ``tests/observability``).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from repro.observability.flightrecorder import Ring, publish
from repro.observability.metrics import REGISTRY, MetricsRegistry

SNAPSHOT_SCHEMA = "repro-timeseries/1"

#: Samples retained per series; drops beyond this are counted.
DEFAULT_CAPACITY = 512

#: A telemetry source: zero-arg callable yielding (name, labels, value).
SourceFn = Callable[[], Iterable[tuple[str, dict, float]]]


def scheme_label(config) -> str:
    """Short scheme label for telemetry series (``aead-eax``, ``xor``, …)."""
    scheme = getattr(config, "cell_scheme", None) or "plain"
    if scheme == "aead":
        return f"aead-{getattr(config, 'aead', 'unknown')}"
    return scheme


def series_key(name: str, labels: dict | None) -> tuple:
    """Canonical dict key: the name plus sorted label pairs."""
    if not labels:
        return (name,)
    return (name,) + tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Series(Ring):
    """One named, labeled time-series: a ring of ``(tick, value)``."""

    def __init__(
        self,
        name: str,
        labels: dict | None = None,
        capacity: int = DEFAULT_CAPACITY,
        volatile: bool = False,
    ) -> None:
        super().__init__(capacity)
        self.name = name
        self.labels = {str(k): str(v) for k, v in (labels or {}).items()}
        self.volatile = volatile

    def record(self, tick: int, value: float) -> None:
        self.append((tick, value))

    @property
    def dropped(self) -> int:
        return sum(self.drops.values())

    @property
    def samples(self) -> list[tuple[int, float]]:
        return self.items()

    def last_value(self) -> float | None:
        sample = self.last()
        return sample[1] if sample is not None else None

    def window(self, ticks: int, now: int) -> list[tuple[int, float]]:
        """Samples whose tick falls in ``(now - ticks, now]``."""
        return [(t, v) for t, v in self.samples if now - ticks < t <= now]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(sorted(self.labels.items())),
            "samples": [[tick, value] for tick, value in self.samples],
            "dropped": self.dropped,
        }


class TelemetryHub:
    """Every series, the logical clock, and the pull-based samplers.

    Values arrive two ways: *pushed* (``record`` for gauges, ``event``
    for cumulative occurrence counts) by instrumented call sites, or
    *pulled* from registered sources at every :meth:`tick` — e.g. a
    sharded keyspace registers one source per shard so per-shard row
    counts are sampled at each rotation write boundary.
    """

    def __init__(
        self, registry: MetricsRegistry | None = None, capacity: int = DEFAULT_CAPACITY
    ) -> None:
        self._registry = registry if registry is not None else REGISTRY
        self.capacity = capacity
        self._lock = threading.Lock()
        self._series: dict[tuple, Series] = {}
        self._tick = 0
        self._sources: dict[object, tuple[SourceFn, dict]] = {}

    # -- lifecycle ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._registry.enabled

    def enable(self) -> None:
        self._registry.enable()

    def disable(self) -> None:
        self._registry.disable()

    def reset(self) -> None:
        """Drop every series and source; rewind the clock to tick 0."""
        with self._lock:
            self._series = {}
            self._tick = 0
            self._sources = {}

    def clear_sources(self) -> None:
        """Unregister every pull source (between monitored workloads)."""
        with self._lock:
            self._sources = {}

    # -- the logical clock --------------------------------------------------

    @property
    def current_tick(self) -> int:
        return self._tick

    def tick(self) -> int:
        """Advance the clock, pull every source, publish the tick."""
        if not self.enabled:
            return self._tick
        with self._lock:
            self._tick += 1
            now = self._tick
            sources = list(self._sources.values())
        for fn, base_labels in sources:
            for name, labels, value in fn():
                merged = dict(base_labels)
                merged.update(labels or {})
                self.record(name, value, labels=merged)
        publish("telemetry", "hub.tick", {"hub_tick": now, "series": len(self._series)})
        return now

    # -- recording ----------------------------------------------------------

    def series(
        self, name: str, labels: dict | None = None, volatile: bool = False
    ) -> Series:
        key = series_key(name, labels)
        try:
            return self._series[key]
        except KeyError:
            with self._lock:
                return self._series.setdefault(
                    key, Series(name, labels, self.capacity, volatile)
                )

    def record(
        self,
        name: str,
        value: float,
        labels: dict | None = None,
        volatile: bool = False,
    ) -> None:
        """Sample a gauge at the current tick; no-op while disabled."""
        if not self.enabled:
            return
        self.series(name, labels, volatile).record(self._tick, value)

    def event(self, name: str, amount: float = 1, labels: dict | None = None) -> None:
        """Count an occurrence: the series accumulates, counter-style."""
        if not self.enabled:
            return
        series = self.series(name, labels)
        last = series.last_value()
        series.record(self._tick, (last or 0) + amount)

    def add_source(
        self, fn: SourceFn, labels: dict | None = None, key: object = None
    ) -> None:
        """Register a pull sampler invoked at every tick; no-op while
        disabled (sources registered under a disabled hub would leak
        references across unrelated workloads).

        ``key`` makes registration idempotent per logical entity: a
        re-mounted shard replaces its predecessor's sampler instead of
        accumulating one dead source per mount (crash campaigns remount
        hundreds of times).
        """
        if not self.enabled:
            return
        with self._lock:
            self._sources[key if key is not None else fn] = (fn, dict(labels or {}))

    def sample_registry(self, registry, labels: dict | None = None) -> None:
        """Sample a :class:`MetricsRegistry` into labeled series.

        Counters (deterministic under seeds) land as regular series;
        per-histogram p99s — wall-clock derived — land as *volatile*
        series named ``<metric>.p99`` so health rules can watch latency
        without ever entering a deterministic snapshot.
        """
        if not self.enabled:
            return
        for name, value in registry.counters().items():
            self.record(name, value, labels=labels)
        for name, summary in registry.histograms().items():
            p99 = summary.get("p99")
            if p99 is not None:
                self.record(f"{name}.p99", p99, labels=labels, volatile=True)

    # -- reporting ----------------------------------------------------------

    def all_series(self, include_volatile: bool = False) -> list[Series]:
        with self._lock:
            ordered = [self._series[key] for key in sorted(self._series)]
        if include_volatile:
            return ordered
        return [series for series in ordered if not series.volatile]

    def snapshot(self, include_volatile: bool = False) -> dict:
        """JSON-ready view: deterministic by construction (volatile
        series excluded unless explicitly requested)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "tick": self._tick,
            "series": [s.to_dict() for s in self.all_series(include_volatile)],
        }

    def latest(self, include_volatile: bool = False) -> list[tuple[str, dict, float]]:
        """One ``(name, labels, last value)`` triple per series, for the
        labeled Prometheus/JSONL exporters."""
        triples = []
        for series in self.all_series(include_volatile):
            value = series.last_value()
            if value is not None:
                triples.append((series.name, dict(series.labels), value))
        return triples


#: The process-wide hub instrumented call sites report to.
HUB = TelemetryHub()
