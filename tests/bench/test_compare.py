"""Baseline comparison: ``compare_reports`` and its CLI surface."""

import json

import pytest

from repro.bench import (
    DELTA_SCHEMA,
    SCHEMA,
    compare_reports,
    load_report,
    scenario_cipher_calls,
    summarize_comparison,
)


def _entry(scenario="bulk_insert", config="fixed AEAD (EAX)",
           wall=1.0, cipher=100, skipped=None):
    entry = {
        "scenario": scenario,
        "config": config,
        "wall_seconds": wall,
        "ops": 10,
        "ops_per_second": 10.0 / wall if wall else 0.0,
        "counters": {"cipher.aes-128.encrypt_blocks": cipher},
    }
    if skipped:
        entry["skipped"] = skipped
    return entry


def _report(entries, quick=False):
    return {
        "schema": SCHEMA,
        "quick": quick,
        "python": "3.12.0",
        "platform": "test",
        "scenarios": entries,
        "paper_checks": {"storage_overhead": {"ok": True}},
        "ok": True,
    }


def test_identical_reports_compare_ok():
    report = _report([_entry()])
    delta = compare_reports(report, report)
    assert delta["schema"] == DELTA_SCHEMA
    assert delta["ok"]
    assert delta["profiles_match"]
    assert delta["entries"][0]["wall_ratio"] == 1.0
    assert delta["entries"][0]["cipher_delta"] == 0


def test_wall_regression_past_threshold_fails():
    baseline = _report([_entry(wall=1.0)])
    current = _report([_entry(wall=1.5)])
    delta = compare_reports(baseline, current, wall_threshold=0.25)
    assert not delta["ok"]
    assert "1.50x baseline" in delta["regressions"][0]
    # A looser threshold tolerates the same slowdown.
    assert compare_reports(baseline, current, wall_threshold=0.6)["ok"]



def test_nan_threshold_is_rejected():
    # NaN compares false against every ratio: it would pass any slowdown.
    baseline = _report([_entry(wall=1.0)])
    current = _report([_entry(wall=50.0)])
    with pytest.raises(ValueError, match="NaN"):
        compare_reports(baseline, current, wall_threshold=float("nan"))

def test_cipher_count_growth_always_fails():
    baseline = _report([_entry(cipher=100)])
    current = _report([_entry(cipher=101)])
    delta = compare_reports(baseline, current)
    assert not delta["ok"]
    assert "cipher calls grew 100 -> 101" in delta["regressions"][0]
    # Shrinking cipher counts is an improvement, not a regression.
    assert compare_reports(current, baseline)["ok"]


def test_profile_mismatch_reports_deltas_without_judging():
    baseline = _report([_entry(wall=1.0, cipher=100)], quick=False)
    current = _report([_entry(wall=9.0, cipher=999)], quick=True)
    delta = compare_reports(baseline, current)
    assert not delta["profiles_match"]
    assert delta["ok"]  # deltas visible, regressions not judged
    assert delta["entries"][0]["cipher_delta"] == 899


def test_missing_scenario_is_a_regression():
    baseline = _report([_entry(), _entry(scenario="point_query")])
    current = _report([_entry()])
    delta = compare_reports(baseline, current)
    assert not delta["ok"]
    assert delta["missing_scenarios"] == [["point_query", "fixed AEAD (EAX)"]]


def test_skipped_entries_are_ignored():
    baseline = _report([_entry(), _entry(scenario="typed", skipped="no typed reads")])
    current = _report([_entry()])
    assert compare_reports(baseline, current)["ok"]


def test_zero_baseline_wall_yields_null_ratio():
    delta = compare_reports(_report([_entry(wall=0.0)]), _report([_entry(wall=0.5)]))
    assert delta["entries"][0]["wall_ratio"] is None
    assert delta["ok"]


def test_summarize_comparison_mentions_regressions():
    baseline = _report([_entry(cipher=100)])
    current = _report([_entry(cipher=150)])
    text = summarize_comparison(compare_reports(baseline, current))
    assert "REGRESSED" in text
    assert "+50" in text
    ok_text = summarize_comparison(compare_reports(baseline, baseline))
    assert "baseline comparison: OK" in ok_text


def test_summarize_comparison_notes_profile_mismatch():
    baseline = _report([_entry()], quick=True)
    current = _report([_entry()], quick=False)
    text = summarize_comparison(compare_reports(baseline, current))
    assert "different size profiles" in text


def test_scenario_cipher_calls_sums_only_cipher_counters():
    entry = _entry(cipher=7)
    entry["counters"]["cipher.aes-128.decrypt_blocks"] = 3
    entry["counters"]["db.insert.calls"] = 500
    assert scenario_cipher_calls(entry) == 10
    assert scenario_cipher_calls({"counters": {}}) == 0


def test_load_report_round_trip(tmp_path):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(_report([_entry()])))
    assert load_report(path)["schema"] == SCHEMA


def test_load_report_rejects_missing_file(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        load_report(tmp_path / "nope.json")


def test_load_report_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_report(path)


def test_load_report_rejects_wrong_schema(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema": "something-else/9"}))
    with pytest.raises(ValueError, match="not a valid bench report"):
        load_report(path)
