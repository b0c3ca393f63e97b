"""Metrics registry: correctness, thread safety, and the off switch."""

import threading

from repro.observability.metrics import MetricsRegistry


def _enabled_registry():
    registry = MetricsRegistry()
    registry.enable()
    return registry


def test_counter_disabled_is_noop():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    counter.inc()
    counter.inc(100)
    assert counter.value == 0
    assert registry.counters() == {}


def test_counter_counts_when_enabled():
    registry = _enabled_registry()
    counter = registry.counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    assert registry.counters() == {"c": 5}


def test_counter_identity_is_stable():
    registry = _enabled_registry()
    assert registry.counter("same") is registry.counter("same")


def test_counter_thread_safety():
    registry = _enabled_registry()
    counter = registry.counter("contended")
    increments_per_thread = 10_000
    threads = [
        threading.Thread(
            target=lambda: [counter.inc() for _ in range(increments_per_thread)]
        )
        for _ in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counter.value == 8 * increments_per_thread


def test_histogram_summary():
    registry = _enabled_registry()
    histogram = registry.histogram("h")
    for value in (4.0, 1.0, 7.0):
        histogram.observe(value)
    summary = histogram.summary()
    assert summary["count"] == 3
    assert summary["total"] == 12.0
    assert summary["min"] == 1.0
    assert summary["max"] == 7.0
    assert summary["mean"] == 4.0


def test_histogram_percentiles_exact_for_small_samples():
    registry = _enabled_registry()
    histogram = registry.histogram("h")
    for value in range(101):  # 0..100, well under the reservoir size
        histogram.observe(float(value))
    summary = histogram.summary()
    assert summary["p50"] == 50.0
    assert summary["p95"] == 95.0
    assert summary["p99"] == 99.0


def test_histogram_percentiles_none_when_empty():
    registry = _enabled_registry()
    summary = registry.histogram("h").summary()
    assert summary["p50"] is None
    assert summary["p95"] is None
    assert summary["p99"] is None


def test_histogram_reservoir_stays_bounded():
    from repro.observability.metrics import Histogram

    size = Histogram.RESERVOIR_SIZE
    registry = _enabled_registry()
    histogram = registry.histogram("h")
    for value in range(10 * size):
        histogram.observe(float(value))
    assert histogram.count == 10 * size
    assert len(histogram._samples) == size
    # The reservoir is an unbiased sample, so the median estimate must
    # land in the middle of the observed range (wide tolerance: this is
    # a sketch, not a sort).
    p50 = histogram.percentile(0.5)
    assert 0.25 * 10 * size < p50 < 0.75 * 10 * size


def test_histogram_percentiles_deterministic():
    def build():
        registry = _enabled_registry()
        histogram = registry.histogram("h")
        for value in range(5000):
            histogram.observe(float(value))
        return histogram.summary()

    assert build() == build()  # private LCG, not the random module


def test_histogram_disabled_is_noop():
    registry = MetricsRegistry()
    histogram = registry.histogram("h")
    histogram.observe(3.0)
    assert histogram.count == 0
    assert histogram.mean is None
    assert registry.histograms() == {}


def test_histogram_thread_safety():
    registry = _enabled_registry()
    histogram = registry.histogram("contended")
    observations_per_thread = 5_000
    threads = [
        threading.Thread(
            target=lambda: [histogram.observe(1.0) for _ in range(observations_per_thread)]
        )
        for _ in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert histogram.count == 8 * observations_per_thread
    assert histogram.total == 8 * observations_per_thread * 1.0


def test_reset_zeroes_everything():
    registry = _enabled_registry()
    registry.counter("c").inc(3)
    registry.histogram("h").observe(1.0)
    registry.reset()
    assert registry.counter("c").value == 0
    assert registry.histogram("h").count == 0
    assert registry.snapshot() == {"counters": {}, "histograms": {}}


def test_snapshot_shape():
    registry = _enabled_registry()
    registry.counter("c").inc()
    registry.histogram("h").observe(2.0)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"c": 1}
    assert snapshot["histograms"]["h"]["count"] == 1


def test_enable_disable_idempotent():
    registry = MetricsRegistry()
    registry.enable()
    registry.enable()
    assert registry.enabled
    registry.disable()
    registry.disable()
    assert not registry.enabled


def test_reservoir_state_derivation_is_stable():
    from repro.observability.metrics import DEFAULT_RESERVOIR_SEED, reservoir_state

    assert reservoir_state("bench-master") == reservoir_state("bench-master")
    assert reservoir_state("bench-master") != reservoir_state("other-run")
    assert reservoir_state(42) == reservoir_state("42")
    assert reservoir_state("anything") != DEFAULT_RESERVOIR_SEED


def test_same_seed_runs_report_identical_quantiles():
    """Past the reservoir bound, retention is RNG-driven; seeding from
    run metadata must make two identical runs agree on every quantile."""
    from repro.observability.metrics import Histogram, reservoir_state

    def run() -> tuple:
        registry = _enabled_registry()
        registry.seed_reservoirs("run-token")
        histogram = registry.histogram("h.seconds")
        for i in range(Histogram.RESERVOIR_SIZE * 3):
            histogram.observe((i * 7919 % 104729) / 1000.0)
        return (
            histogram.percentile(0.5),
            histogram.percentile(0.95),
            histogram.percentile(0.99),
        )

    assert run() == run()


def test_reset_returns_reservoir_to_seed_state():
    from repro.observability.metrics import Histogram

    registry = _enabled_registry()
    registry.seed_reservoirs("token")
    histogram = registry.histogram("h")

    def fill() -> tuple:
        for i in range(Histogram.RESERVOIR_SIZE * 2):
            histogram.observe(float(i % 997))
        return (histogram.percentile(0.5), histogram.percentile(0.99))

    first = fill()
    registry.reset()
    assert fill() == first


def test_seed_reservoirs_applies_to_future_histograms():
    from repro.observability.metrics import Histogram, reservoir_state

    registry = _enabled_registry()
    registry.seed_reservoirs("token")
    pre = registry.histogram("pre")
    post = registry.histogram("post")  # created after seeding
    for i in range(Histogram.RESERVOIR_SIZE * 2):
        pre.observe(float(i % 997))
        post.observe(float(i % 997))
    assert pre.percentile(0.99) == post.percentile(0.99)
    assert pre._seed_state == post._seed_state == reservoir_state("token")
