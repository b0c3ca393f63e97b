"""Zero-dependency metrics: counters and histograms.

The ROADMAP's north star — an engine that runs "as fast as the hardware
allows" — cannot be steered without measurement, and the paper's own
cost model (Sect. 4) is stated in countable units: blockcipher
invocations and per-entry storage octets.  This registry makes those
quantities (plus wall time) observable at runtime.

Design constraints, in order:

1. **Off by default.**  A freshly imported registry records nothing.
2. **Near-zero disabled cost.**  Every mutate path begins with a single
   ``enabled`` attribute check; hot call sites additionally guard with
   ``if REGISTRY.enabled:`` so the disabled path is one boolean test.
3. **Thread-safe when enabled.**  Each metric carries its own lock, so
   concurrent increments never lose updates (the engine is headed for
   concurrent workloads; see ROADMAP).
4. **No dependencies.**  Standard library only, importable from any
   layer without cycles.
"""

from __future__ import annotations

import hashlib
import threading

#: Initial LCG state of every histogram reservoir.  Runs that want
#: quantiles tied to their workload identity reseed via
#: :meth:`MetricsRegistry.seed_reservoirs`.
DEFAULT_RESERVOIR_SEED = 0x9E3779B97F4A7C15


def reservoir_state(token: str | int) -> int:
    """A non-zero 64-bit LCG state derived from run metadata.

    Hashing keeps unrelated tokens (seeds, config names) from colliding
    into correlated sample streams; the ``or`` guard avoids the LCG's
    one weak state.
    """
    if isinstance(token, int):
        token = str(token)
    digest = hashlib.sha256(b"repro-reservoir/" + token.encode()).digest()
    return int.from_bytes(digest[:8], "big") or DEFAULT_RESERVOIR_SEED


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "_registry", "_lock", "_value")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def inc(self, amount: int = 1) -> None:
        """Add ``amount``; a no-op while the registry is disabled."""
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Histogram:
    """Streaming summary of observed values: count, sum, min, max, and
    percentile estimates from a fixed-size sample reservoir.

    Deliberately not bucketed — the bench reporter wants exact counts
    and totals.  Percentiles come from uniform reservoir sampling
    (Vitter's algorithm R) over at most :data:`RESERVOIR_SIZE` retained
    samples, so arbitrarily long benchmark runs stay O(1) in memory; the
    replacement index is drawn from a private 64-bit LCG, keeping the
    process's global RNG state untouched (instrumentation must never
    perturb the deterministic workloads it observes).
    """

    #: Retained samples; exact percentiles up to this many observations.
    RESERVOIR_SIZE = 1024

    __slots__ = (
        "name",
        "_registry",
        "_lock",
        "count",
        "total",
        "min",
        "max",
        "_samples",
        "_rng_state",
        "_seed_state",
    )

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        seed_state: int = DEFAULT_RESERVOIR_SEED,
    ) -> None:
        self.name = name
        self._registry = registry
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._samples: list[float] = []
        self._seed_state = seed_state
        self._rng_state = seed_state

    def seed(self, state: int) -> None:
        """Pin the reservoir's RNG to ``state`` (and make :meth:`reset`
        return to it), so two same-seed runs retain identical samples —
        and therefore report identical p50/p95/p99 — no matter what ran
        in the process before them."""
        with self._lock:
            self._seed_state = state
            self._rng_state = state

    def observe(self, value: float) -> None:
        """Record one sample; a no-op while the registry is disabled."""
        if not self._registry.enabled:
            return
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if len(self._samples) < self.RESERVOIR_SIZE:
                self._samples.append(value)
            else:
                self._rng_state = (
                    self._rng_state * 6364136223846793005 + 1442695040888963407
                ) % (1 << 64)
                slot = self._rng_state % self.count
                if slot < self.RESERVOIR_SIZE:
                    self._samples[slot] = value

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def percentile(self, fraction: float) -> float | None:
        """Nearest-rank percentile estimate from the reservoir
        (``fraction`` in [0, 1]); None before the first sample."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
        return ordered[rank]

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = None
            self.max = None
            self._samples = []
            # Back to the seed state: without this, the reservoir's
            # replacement choices — and so the reported percentiles —
            # would depend on whatever the process observed before the
            # reset, breaking same-seed reproducibility across scenarios.
            self._rng_state = self._seed_state

    def summary(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """A named collection of counters and histograms with one switch.

    ``enabled`` starts False: instrumented code paths read it once and
    fall through, so a database built with the registry off behaves —
    and stores — byte-for-byte like an uninstrumented one (pinned by the
    regression tests in ``tests/observability``).
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._reservoir_seed = DEFAULT_RESERVOIR_SEED

    # -- lifecycle ----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every metric (between benchmark scenarios)."""
        with self._lock:
            for counter in self._counters.values():
                counter.reset()
            for histogram in self._histograms.values():
                histogram.reset()

    def seed_reservoirs(self, token: str | int) -> None:
        """Seed every histogram reservoir — current and future — from
        run metadata (a workload seed, a report id) so reported
        quantiles are reproducible across identical runs."""
        state = reservoir_state(token)
        with self._lock:
            self._reservoir_seed = state
            histograms = list(self._histograms.values())
        for histogram in histograms:
            histogram.seed(state)

    # -- metric access ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter(name, self))

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(
                    name, Histogram(name, self, seed_state=self._reservoir_seed)
                )

    # -- reporting ----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Non-zero counter values, sorted by name."""
        return {
            name: counter.value
            for name, counter in sorted(self._counters.items())
            if counter.value
        }

    def histograms(self) -> dict[str, dict]:
        """Summaries of every histogram that saw at least one sample."""
        return {
            name: histogram.summary()
            for name, histogram in sorted(self._histograms.items())
            if histogram.count
        }

    def snapshot(self) -> dict:
        """One JSON-ready view of everything recorded so far."""
        return {"counters": self.counters(), "histograms": self.histograms()}


#: The process-wide registry every instrumented call site reports to.
REGISTRY = MetricsRegistry()
