"""The benchmark's own checks: percentile rule, self time, seeded inputs."""

import json
from pathlib import Path

import pytest

from perfbench import identity, stats, workloads
from perfbench.layers import LAYERS, PER_LAYER_UNITS, LayerProbe, LayerTracer
from perfbench.workloads import (
    END_TO_END_UNITS,
    Model,
    Op,
    WORKLOADS,
    point_stream,
    random_rows,
    range_stream,
    sequenced_rows,
    stream_length,
)

ROOT = Path(__file__).resolve().parents[2]


# -- the percentile rule -------------------------------------------------------


def test_tail_needs_ten_samples_beyond():
    assert stats.min_samples(0.90) == 100
    assert stats.min_samples(0.95) == 200
    assert stats.min_samples(0.50) == 20
    samples = list(range(1, 101))
    assert stats.percentile(samples, 0.90) == 90
    assert stats.samples_beyond(100, 0.90) == 10
    with pytest.raises(ValueError):
        stats.percentile(samples[:-1], 0.90)


def test_percentile_is_nearest_rank_regardless_of_order():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
    assert stats.percentile(samples, 0.50) == 3.0
    assert stats.percentile(samples, 0.95) == 5.0


def test_every_stream_satisfies_the_rule_at_one_second():
    assert stream_length("point", 1) // 10 >= stats.min_samples(0.90)
    assert stream_length("range", 1) >= stats.min_samples(0.90)
    assert stream_length("durable", 1) >= stats.min_samples(0.95)


# -- self time -----------------------------------------------------------------


def _clock(*ticks):
    values = iter(ticks)
    return lambda: next(values)


def test_self_time_subtracts_nested_children():
    tracer = LayerTracer(clock=_clock(0, 1, 2, 5, 6, 7, 9, 10))
    tracer.phase = "lookup"
    tracer.push("a", "outer")      # 0
    tracer.push("b", "middle")     # 1
    tracer.push("c", "inner")      # 2
    tracer.pop()                   # 5: c = 3
    tracer.pop()                   # 6: b = 5 - 3 = 2
    tracer.push("b", "again")      # 7
    tracer.pop()                   # 9: b += 2
    tracer.pop()                   # 10: a = 10 - 5 - 2 = 3
    assert tracer.self_s[("c", "lookup")] == 3
    assert tracer.self_s[("b", "lookup")] == 4
    assert tracer.self_s[("a", "lookup")] == 3
    assert tracer.root_s["lookup"] == 10
    assert sum(tracer.self_s.values()) == tracer.root_s["lookup"]


def test_same_layer_nesting_is_not_double_counted():
    tracer = LayerTracer(clock=_clock(0, 2, 3, 8))
    tracer.push("db", "select")
    tracer.push("db", "get_row")
    tracer.pop()
    tracer.pop()
    assert tracer.self_s[("db", "idle")] == 8
    assert tracer.enclosing("db") is None


def test_spans_keep_their_parent_and_request():
    tracer = LayerTracer(clock=_clock(0, 1, 2, 3))
    tracer.keep_spans = 10
    tracer.op_id = 7
    tracer.push("a", "x")
    tracer.push("b", "y")
    tracer.pop()
    tracer.pop()
    inner, outer = tracer.spans
    assert inner["parent"] == outer["span"] and outer["parent"] is None
    assert {inner["op"], outer["op"]} == {7}


def test_probe_covers_a_real_query_and_uninstalls_cleanly():
    from repro.core.encrypted_db import EncryptedDatabase
    from repro.primitives.aes_fast import FastAES
    from perfbench.workloads import CONFIG, MASTER_KEY, SCHEMA, TABLE

    original = FastAES.__dict__["encrypt_block"]
    db = EncryptedDatabase(MASTER_KEY, CONFIG)
    db.create_table(SCHEMA)
    rows = random_rows(0, 20)
    db.insert_many(TABLE, [list(r) for r in rows])
    db.create_index("records_by_id", TABLE, "id", kind="btree")
    probe = LayerProbe()
    probe.watch([db.index("records_by_id").structure])
    probe.install()
    probe.tracer.phase = "lookup"
    try:
        answer = db.select_equals(TABLE, "id", 7)
    finally:
        probe.uninstall()
    assert [tuple(values) for _, values in answer] == [rows[7]]
    tracer = probe.tracer
    layer_total = sum(tracer.layer_self(layer) for layer in LAYERS)
    assert layer_total == pytest.approx(tracer.root_s["lookup"], rel=1e-9)
    assert tracer.total("primitives.calls") > 0
    assert tracer.total("engine.btree.nodes_read") >= 1
    assert tracer.total("cells.decoded") == 3
    assert FastAES.__dict__["encrypt_block"] is original
    assert db.index("records_by_id").structure.observer is None


def test_cipher_count_matches_the_programs_own_instrumentation():
    from repro import observability
    from repro.core.encrypted_db import EncryptedDatabase
    from perfbench.workloads import CONFIG, MASTER_KEY, SCHEMA, TABLE

    observability.enable()
    try:
        db = EncryptedDatabase(MASTER_KEY, CONFIG)
        db.create_table(SCHEMA)
        db.insert_many(TABLE, [list(r) for r in random_rows(0, 20)])
        db.create_index("records_by_id", TABLE, "id", kind="btree")
        db.create_index("records_by_payload", TABLE, "payload", kind="table")
        observability.reset()
        probe = LayerProbe()
        probe.install()
        try:
            db.select_range(TABLE, "id", 3, 9)
            db.select_prefix(TABLE, "payload", "a")
            db.insert(TABLE, list(random_rows(0, 1, start=20)[0]))
        finally:
            probe.uninstall()
        counters = observability.REGISTRY.snapshot()["counters"]
    finally:
        observability.disable()
        observability.reset()
    measured = sum(v for k, v in counters.items() if k.startswith("cipher."))
    assert measured > 0
    assert probe.tracer.total("primitives.calls", None) == measured


# -- seeded inputs -------------------------------------------------------------


def test_seeded_streams_repeat_exactly():
    rows = random_rows(3, 200)
    assert rows == random_rows(3, 200)
    assert point_stream(3, rows, 1000) == point_stream(3, rows, 1000)
    assert range_stream(3, rows, 100) == range_stream(3, rows, 100)
    assert sequenced_rows(3, 50) == sequenced_rows(3, 50)
    assert point_stream(3, rows, 1000) != point_stream(4, rows, 1000)


def test_point_stream_mix_is_exact():
    rows = random_rows(1, 200)
    ops = point_stream(1, rows, 1000)
    kinds = [op.kind for op in ops]
    assert kinds.count("lookup_id") == 600
    assert kinds.count("lookup_payload") == 300
    inserted = [op.arg[0] for op in ops if op.kind == "insert"]
    assert inserted == list(range(200, 300))


def test_sequenced_payloads_are_append_ordered():
    rows = sequenced_rows(0, 30)
    payloads = [row[1] for row in rows]
    assert payloads == sorted(payloads)
    assert all(len(p) == 38 for p in payloads)


def test_model_answers_like_the_engine_should():
    rows = [(0, "abc", "N"), (1, "abd", "M"), (2, "xyz", "O")]
    model = Model(rows)
    assert model.expect(Op("lookup_id", 1)) == [rows[1]]
    assert model.expect(Op("prefix", "a")) == rows[:2]
    assert model.expect(Op("range", 0)) == rows
    model.insert((3, "abc", "P"))
    assert model.expect(Op("lookup_payload", "abc")) == [rows[0], (3, "abc", "P")]


# -- whole workloads, shrunk ----------------------------------------------------


def test_workloads_answer_correctly_and_observing_keeps_bytes(monkeypatch):
    monkeypatch.setattr(workloads, "MEMORY_ROWS", 120)
    monkeypatch.setattr(workloads, "CHECKPOINT_EVERY", 20)
    monkeypatch.setattr(workloads, "stream_length", lambda family, seconds: 60)
    runs = {
        name: workloads.execute(name, 3, 1, trace=name == "durable_ingest")
        for name in WORKLOADS
    }
    for run in runs.values():
        assert run.failed == 0 and run.problems == [] and run.attempted > 60
    images = {name: run.facts["image_sha256"] for name, run in runs.items()}
    assert images["point_mix"] == images["point_mix_monitored"]
    assert workloads.execute("point_mix", 3, 1, trace=True).facts["image_sha256"] == (
        images["point_mix"]
    )
    durable = runs["durable_ingest"]
    layer = workloads.layer_report(durable)
    assert durable.problems == []
    assert layer["durability.syncs_per_insert"] > 0
    assert layer["resilience.replica_writes_per_write"] == 3
    assert layer["durability.replay_records"] > 0


# -- identity ledger -----------------------------------------------------------


def test_identity_ledger_catches_drift(tmp_path):
    facts = {"image_sha256": "aa", "primitives.calls_per_op": 12.5}
    assert identity.check_and_record(tmp_path, "point_mix", 1, 8, facts) == []
    assert identity.check_and_record(tmp_path, "point_mix", 1, 8, facts) == []
    drift = dict(facts, image_sha256="bb")
    assert identity.check_and_record(tmp_path, "point_mix", 1, 8, drift)
    sibling = {"image_sha256": "cc"}
    problems = identity.check_and_record(tmp_path, "point_mix_monitored", 1, 8, sibling)
    assert any("observing changed a stored byte" in p for p in problems)


# -- the contract file -----------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
