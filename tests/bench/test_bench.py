"""Bench harness: report schema, paper cross-checks, and artifact paths."""

import json

import pytest

from repro import observability
from repro.bench import (
    SCHEMA,
    divergences,
    next_bench_path,
    run_bench,
    summarize,
    validate_report,
    write_report,
)
from repro.bench.scenarios import SizeProfile, supports_typed_reads
from repro.robustness.campaign import default_campaign_configs


@pytest.fixture(autouse=True)
def _global_observability():
    observability.disable()
    observability.reset()
    yield
    observability.disable()
    observability.reset()


@pytest.fixture(scope="module")
def quick_report():
    # One scenario keeps the tier-1 run fast; the full matrix runs in
    # the CI bench-smoke job and the nightly benchmarks tier.
    return run_bench(["bulk_insert"], quick=True)


def test_quick_report_passes_paper_checks(quick_report):
    assert quick_report["ok"] is True
    assert quick_report["paper_checks"]["blockcipher_invocations"]["ok"]
    assert quick_report["paper_checks"]["storage_overhead"]["ok"]


def test_quick_report_validates(quick_report):
    assert validate_report(quick_report) == []
    assert quick_report["schema"] == SCHEMA
    assert divergences(quick_report) == []


def test_report_covers_every_configuration(quick_report):
    labels = {entry["config"] for entry in quick_report["scenarios"]}
    assert labels == {label for label, _ in default_campaign_configs()}


def test_aead_scenarios_carry_formula_checks(quick_report):
    checked = {
        entry["config"]: entry["paper_check"]
        for entry in quick_report["scenarios"]
        if entry["paper_check"] is not None
    }
    assert set(checked) == {"fixed AEAD (EAX)", "fixed AEAD (OCB)"}
    for check in checked.values():
        assert check["ok"] is True
        assert check["predicted_cipher_calls"] == check["measured_cipher_calls"]
        assert check["measured_cipher_calls"] > 0


def test_report_carries_reproducibility_meta(quick_report):
    meta = quick_report["meta"]
    for field in ("python", "platform", "git_describe", "seed", "config"):
        assert meta.get(field), f"meta lacks {field}"
    assert meta["scenarios"] == ["bulk_insert"]
    assert "fixed AEAD (EAX)" in meta["config"]


def test_validate_report_accepts_metaless_historical_baselines(quick_report):
    legacy = dict(quick_report)
    legacy.pop("meta")
    assert validate_report(legacy) == []
    assert any(
        "meta" in problem
        for problem in validate_report(dict(quick_report, meta={"python": "3"}))
    )


def test_run_bench_leaves_no_dropped_spans(quick_report):
    # Satellite invariant: the harness asserts trace.spans_dropped == 0
    # after every scenario, so a passing report implies none were lost.
    assert observability.TRACER.dropped == 0


def test_run_bench_restores_prior_observability_state():
    run_bench(["bulk_insert"], quick=True)
    assert not observability.enabled()
    assert observability.REGISTRY.counters() == {}
    observability.enable()
    run_bench(["bulk_insert"], quick=True)
    assert observability.enabled()


def test_run_bench_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_bench(["no_such_scenario"], quick=True)


def test_typed_read_support_matrix():
    support = {
        label: supports_typed_reads(config)
        for label, config in default_campaign_configs()
    }
    # Only the [3] XOR-Scheme (no-validator decode keeps the padding)
    # cannot round-trip typed values.
    assert support["[3] XOR-Scheme"] is False
    assert all(ok for label, ok in support.items() if label != "[3] XOR-Scheme")


def test_summarize_mentions_status_and_skips(quick_report):
    text = summarize(quick_report)
    assert "bench (quick profile): OK" in text
    assert "paper check blockcipher_invocations: ok" in text


def test_write_report_and_next_bench_path(tmp_path, quick_report):
    first = next_bench_path(tmp_path)
    assert first.name == "BENCH_1.json"
    write_report(quick_report, first)
    assert next_bench_path(tmp_path).name == "BENCH_2.json"
    loaded = json.loads(first.read_text())
    assert validate_report(loaded) == []


def test_write_report_never_silently_overwrites(tmp_path, quick_report):
    path = tmp_path / "BENCH_1.json"
    write_report(quick_report, path)
    before = path.read_text()
    with pytest.raises(FileExistsError, match="refusing to overwrite"):
        write_report({"schema": "other"}, path)
    assert path.read_text() == before  # recorded history untouched
    write_report(quick_report, path, overwrite=True)
    assert validate_report(json.loads(path.read_text())) == []


def test_validate_report_flags_structural_problems():
    assert validate_report({"schema": "bogus"}) != []
    broken = {
        "schema": SCHEMA,
        "ok": True,
        "quick": True,
        "scenarios": [{"scenario": "x"}],
        "paper_checks": {"c": {}},
    }
    problems = validate_report(broken)
    assert any("missing" in p for p in problems)


def test_divergences_reports_failed_checks():
    report = {
        "paper_checks": {"c": {"ok": False, "detail": 1}},
        "scenarios": [
            {
                "scenario": "bulk_insert",
                "config": "fixed AEAD (EAX)",
                "paper_check": {
                    "ok": False,
                    "predicted_cipher_calls": 10,
                    "measured_cipher_calls": 11,
                },
            }
        ],
    }
    failures = divergences(report)
    assert len(failures) == 2
    assert any("predicted 10" in f for f in failures)


def test_size_profiles_are_ordered():
    quick, full = SizeProfile.quick(), SizeProfile.full()
    assert quick.rows < full.rows
    assert quick.fault_seeds < full.fault_seeds


def test_report_embeds_zero_series_drop_counts(quick_report):
    # The "zero dropped spans" guarantee, extended to telemetry: the
    # report states positively that no series ring overflowed.  The
    # bulk_insert scenario never touches the WAL or sharding layers, so
    # its series list is legitimately empty — the field must still be
    # present (an empty list, not an absence).
    assert quick_report["series_dropped"] == []


def test_wal_scenario_reports_nonzero_series_all_undropped():
    report = run_bench(["wal_replay"], quick=True)
    entries = report["series_dropped"]
    assert entries  # WAL mounts do emit telemetry
    assert all(entry["dropped"] == 0 for entry in entries)
    assert any(entry["series"].startswith("wal.") for entry in entries)
    keys = [(e["series"], sorted(e["labels"].items())) for e in entries]
    assert keys == sorted(keys)


def test_validate_report_checks_series_dropped_when_present(quick_report):
    assert validate_report(quick_report) == []
    # Historical baselines without the field stay valid.
    legacy = dict(quick_report)
    legacy.pop("series_dropped")
    assert validate_report(legacy) == []
    broken = dict(quick_report)
    broken["series_dropped"] = [{"series": "", "dropped": -1}]
    problems = validate_report(broken)
    assert any("non-empty 'series'" in p for p in problems)
    assert any("non-negative" in p for p in problems)


def test_telemetry_dropped_entries_snapshots_the_hub():
    from repro.bench.harness import telemetry_dropped_entries
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.timeseries import TelemetryHub

    hub = TelemetryHub(MetricsRegistry(), capacity=2)
    hub.enable()
    for value in range(5):
        hub.record("wal.bytes", value, {"shard": "s0"})
    hub.record("ops", 1.0)
    entries = telemetry_dropped_entries(hub)
    assert entries == [
        {"series": "ops", "labels": {}, "dropped": 0},
        {"series": "wal.bytes", "labels": {"shard": "s0"}, "dropped": 3},
    ]
