"""Labeled time-series hub: ring buffers, the logical clock, sources."""

from repro.observability.flightrecorder import subscribe, unsubscribe
from repro.observability.metrics import MetricsRegistry
from repro.observability.timeseries import (
    DEFAULT_CAPACITY,
    SNAPSHOT_SCHEMA,
    Series,
    TelemetryHub,
    scheme_label,
    series_key,
)


def _enabled_hub(**kwargs) -> TelemetryHub:
    hub = TelemetryHub(MetricsRegistry(), **kwargs)
    hub.enable()
    return hub


def test_series_key_is_order_insensitive():
    assert series_key("m", {"a": 1, "b": 2}) == series_key("m", {"b": 2, "a": 1})
    assert series_key("m", None) == ("m",)
    assert series_key("m", {}) == ("m",)


def test_scheme_label_covers_all_cell_schemes():
    class Cfg:
        def __init__(self, cell_scheme, aead=None):
            self.cell_scheme = cell_scheme
            self.aead = aead

    assert scheme_label(Cfg("plain")) == "plain"
    assert scheme_label(Cfg("xor")) == "xor"
    assert scheme_label(Cfg("aead", "eax")) == "aead-eax"
    assert scheme_label(Cfg(None)) == "plain"


def test_series_ring_drops_oldest_and_counts():
    series = Series("m", capacity=3)
    for tick in range(5):
        series.record(tick, float(tick))
    assert series.samples == [(2, 2.0), (3, 3.0), (4, 4.0)]
    assert series.dropped == 2
    assert series.to_dict()["dropped"] == 2


def test_series_window_is_half_open():
    series = Series("m")
    for tick in (1, 2, 3, 4):
        series.record(tick, float(tick))
    assert series.window(2, now=4) == [(3, 3.0), (4, 4.0)]
    assert series.window(10, now=4) == series.samples


def test_disabled_hub_records_nothing():
    hub = TelemetryHub(MetricsRegistry())
    hub.record("m", 1.0)
    hub.event("e")
    hub.add_source(lambda: [("s", {}, 1.0)])
    assert hub.tick() == 0
    assert hub.all_series(include_volatile=True) == []


def test_record_samples_at_current_tick():
    hub = _enabled_hub()
    hub.tick()
    hub.record("gauge", 7.0, labels={"shard": "s0"})
    [series] = hub.all_series()
    assert series.samples == [(1, 7.0)]
    assert series.labels == {"shard": "s0"}


def test_event_accumulates_counter_style():
    hub = _enabled_hub()
    hub.event("e")
    hub.event("e", 2)
    hub.tick()
    hub.event("e")
    [series] = hub.all_series()
    assert series.samples == [(0, 1.0), (0, 3.0), (1, 4.0)]


def test_distinct_labels_are_distinct_series():
    hub = _enabled_hub()
    hub.record("m", 1.0, labels={"shard": "s0"})
    hub.record("m", 2.0, labels={"shard": "s1"})
    assert len(hub.all_series()) == 2


def test_tick_pulls_sources_with_merged_labels():
    hub = _enabled_hub()
    hub.add_source(
        lambda: [("rows", {"table": "t"}, 5.0)], labels={"shard": "s0"}
    )
    hub.tick()
    [series] = hub.all_series()
    assert series.name == "rows"
    assert series.labels == {"shard": "s0", "table": "t"}
    assert series.samples == [(1, 5.0)]


def test_keyed_source_registration_is_idempotent():
    hub = _enabled_hub()
    hub.add_source(lambda: [("m", {}, 1.0)], key=("shard", "s0"))
    hub.add_source(lambda: [("m", {}, 2.0)], key=("shard", "s0"))
    hub.tick()
    [series] = hub.all_series()
    # Only the replacement sampled: one sample, the second value.
    assert series.samples == [(1, 2.0)]


def test_clear_sources_stops_pulling_but_keeps_series():
    hub = _enabled_hub()
    hub.add_source(lambda: [("m", {}, 1.0)])
    hub.tick()
    hub.clear_sources()
    hub.tick()
    [series] = hub.all_series()
    assert series.samples == [(1, 1.0)]


def test_on_tick_fires_after_sources():
    hub = _enabled_hub()
    hub.add_source(lambda: [("m", {}, 1.0)])
    seen = []

    def on_tick(channel, kind, fields):
        seen.append((channel, kind, fields["hub_tick"], len(hub.all_series())))

    subscribe(on_tick)
    try:
        hub.tick()
    finally:
        unsubscribe(on_tick)
    assert seen == [("telemetry", "hub.tick", 1, 1)]


def test_reset_drops_everything():
    hub = _enabled_hub()
    hub.record("m", 1.0)
    hub.add_source(lambda: [("s", {}, 1.0)])
    hub.tick()
    hub.reset()
    assert hub.current_tick == 0
    assert hub.all_series(include_volatile=True) == []
    hub.tick()
    assert hub.all_series(include_volatile=True) == []


def test_volatile_series_excluded_from_snapshot():
    hub = _enabled_hub()
    hub.record("steady", 1.0)
    hub.record("wall.p99", 0.5, volatile=True)
    snapshot = hub.snapshot()
    assert snapshot["schema"] == SNAPSHOT_SCHEMA
    assert [entry["name"] for entry in snapshot["series"]] == ["steady"]
    names = {s.name for s in hub.all_series(include_volatile=True)}
    assert names == {"steady", "wall.p99"}


def test_sample_registry_counters_steady_p99_volatile():
    from repro.observability.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.enable()
    registry.counter("c").inc(3)
    registry.histogram("h.seconds").observe(0.25)

    hub = _enabled_hub()
    hub.tick()
    hub.sample_registry(registry, labels={"config": "x"})
    by_name = {s.name: s for s in hub.all_series(include_volatile=True)}
    assert by_name["c"].samples == [(1, 3)]
    assert not by_name["c"].volatile
    assert by_name["h.seconds.p99"].volatile
    assert by_name["h.seconds.p99"].labels == {"config": "x"}


def test_latest_yields_one_triple_per_series():
    hub = _enabled_hub()
    hub.record("a", 1.0, labels={"k": "v"})
    hub.record("a", 2.0, labels={"k": "v"})
    hub.record("b", 9.0)
    triples = hub.latest()
    assert ("a", {"k": "v"}, 2.0) in triples
    assert ("b", {}, 9.0) in triples
    assert len(triples) == 2


def test_snapshot_is_sorted_and_deterministic():
    def build():
        hub = _enabled_hub()
        hub.record("z", 1.0)
        hub.record("a", 2.0, labels={"x": "1"})
        hub.record("a", 3.0, labels={"x": "0"})
        return hub.snapshot()

    first, second = build(), build()
    assert first == second
    names = [(e["name"], tuple(e["labels"].items())) for e in first["series"]]
    assert names == sorted(names)


def test_default_capacity_applies():
    hub = _enabled_hub(capacity=2)
    for _ in range(4):
        hub.event("e")
    [series] = hub.all_series()
    assert len(series.samples) == 2
    assert series.dropped == 2
    assert DEFAULT_CAPACITY == 512


def test_series_dropped_samples_reports_every_series():
    from repro.observability.export import (
        render_prometheus_samples,
        series_dropped_samples,
    )

    hub = _enabled_hub(capacity=2)
    for value in range(5):
        hub.record("wal.bytes", value, labels={"shard": "s0"})
    hub.record("ops", 1.0)
    samples = series_dropped_samples(hub.snapshot()["series"])
    # Zero counts are reported too — silence is not evidence.
    assert ("series.dropped", {"series": "ops"}, 0) in samples
    assert (
        "series.dropped",
        {"shard": "s0", "series": "wal.bytes"},
        3,
    ) in samples
    rendered = render_prometheus_samples(samples, type_hint="counter")
    assert "# TYPE repro_series_dropped counter" in rendered
    assert 'repro_series_dropped{series="ops"} 0' in rendered
    assert (
        'repro_series_dropped{series="wal.bytes",shard="s0"} 3' in rendered
    )
