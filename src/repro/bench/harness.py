"""The benchmark harness: scenarios × configurations → one report.

Runs every selected scenario against all six scheme configurations of
the fault campaign (plaintext baseline, the two legacy [3] schemes, the
[12] index scheme, and both AEAD fixes), with observability enabled so
the metric snapshots land in the report.  Before the workload loop it
runs the *paper checks* — the Sect. 4 cost model executed as unit-sized
measurements — whose failure makes the whole report (and the CI job
consuming it) red.
"""

from __future__ import annotations

from repro import observability
from repro.analysis.overhead import (
    PAPER_STORAGE_OCTETS,
    cached_precomputation_offset,
    measure_blockcipher_invocations,
    measure_storage_overhead,
    paper_invocation_formula,
)
from repro.bench.report import build_report, scenario_cipher_calls
from repro.bench.scenarios import (
    REQUIRES_TYPED_READS,
    SCENARIOS,
    _MASTER_KEY,
    ScenarioResult,
    SizeProfile,
    supports_typed_reads,
)
from repro.observability.runmeta import run_metadata
from repro.robustness.campaign import default_campaign_configs

#: (n plaintext blocks, m header blocks) grid the formula is checked on.
_FORMULA_GRID = [(1, 1), (2, 1), (4, 2), (7, 3)]

#: Marginal costs the repo's invocation tests pin: EAX pays 2 calls per
#: extra plaintext block (CTR + OMAC), OCB pays 1; both pay 1 per extra
#: header block.
_EXPECTED_MARGINALS = {"eax": (2.0, 1.0), "ocb": (1.0, 1.0)}


def check_invocation_formulas() -> dict:
    """Measured cipher calls == paper formula (+ documented offset), for
    every (scheme, n, m) grid point, plus the marginal costs."""
    points = []
    ok = True
    for scheme in ("eax", "ocb"):
        offset = cached_precomputation_offset(scheme)
        expected_marginals = _EXPECTED_MARGINALS[scheme]
        for n, m in _FORMULA_GRID:
            measured = measure_blockcipher_invocations(scheme, n, m)
            predicted = paper_invocation_formula(scheme, n, m) + offset
            marginals = (
                measured.marginal_per_plaintext_block,
                measured.marginal_per_header_block,
            )
            point_ok = (
                measured.total_calls == predicted
                and marginals == expected_marginals
            )
            ok = ok and point_ok
            points.append(
                {
                    "scheme": scheme,
                    "n": n,
                    "m": m,
                    "predicted": predicted,
                    "measured": measured.total_calls,
                    "marginals": marginals,
                    "ok": point_ok,
                }
            )
    return {
        "description": (
            "Sect. 4: EAX needs 2n+m+1 blockcipher invocations, OCB "
            "n+m+5 (implementation caches 3 of OCB's per-key calls)"
        ),
        "points": points,
        "ok": ok,
    }


def check_storage_overhead() -> dict:
    """Per-entry stored octets == the paper's 32 (EAX/OCB) resp. 16 (CCFB)."""
    points = []
    ok = True
    for scheme, paper_octets in sorted(PAPER_STORAGE_OCTETS.items()):
        measured = measure_storage_overhead(scheme, b"x" * 40)
        point_ok = measured.total_octets == paper_octets
        ok = ok and point_ok
        points.append(
            {
                "scheme": scheme,
                "paper_octets": paper_octets,
                "measured_octets": measured.total_octets,
                "ok": point_ok,
            }
        )
    return {
        "description": (
            "Sect. 4: storage overhead limited to nonce and tag — "
            "32 octets per entry for EAX and OCB, 16 for CCFB"
        ),
        "points": points,
        "ok": ok,
    }


def run_bench(
    scenario_names: list[str] | None = None,
    quick: bool = False,
) -> dict:
    """Execute the bench and return the report document.

    ``scenario_names`` defaults to every scenario; unknown names raise
    ValueError (the CLI turns that into a usage error).
    """
    if scenario_names is None:
        scenario_names = list(SCENARIOS)
    if not scenario_names:
        raise ValueError(f"no scenarios selected; available: {', '.join(SCENARIOS)}")
    unknown = [name for name in scenario_names if name not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(SCENARIOS)}"
        )

    sizes = SizeProfile.quick() if quick else SizeProfile.full()
    paper_checks = {
        "blockcipher_invocations": check_invocation_formulas(),
        "storage_overhead": check_storage_overhead(),
    }

    results: list[ScenarioResult] = []
    was_enabled = observability.enabled()
    # Before any database is constructed.  Telemetry rides the same
    # switch, so the report can prove its rings never overflowed: the
    # "zero dropped spans" guarantee, extended to the time-series layer.
    observability.enable()
    observability.HUB.reset()
    # Pin every histogram reservoir to the run's seed, so two identical
    # runs report identical p50/p95/p99 regardless of process history.
    observability.REGISTRY.seed_reservoirs(_MASTER_KEY.hex())
    try:
        configs = default_campaign_configs()
        typed_reads_ok = {
            label: supports_typed_reads(config) for label, config in configs
        }
        for name in scenario_names:
            runner = SCENARIOS[name]
            for label, config in configs:
                if name in REQUIRES_TYPED_READS and not typed_reads_ok[label]:
                    results.append(
                        ScenarioResult.skip(
                            name, label, "cell codec does not round-trip typed values"
                        )
                    )
                    continue
                observability.reset()
                results.append(runner(label, config, sizes))
                dropped = observability.TRACER.dropped
                if dropped:
                    raise AssertionError(
                        f"{name}/{label}: tracer ring evicted {dropped} "
                        "spans mid-bench (trace.spans_dropped != 0); the "
                        "report's span-derived numbers would be partial"
                    )
        series_dropped = telemetry_dropped_entries(observability.HUB)
        for entry in series_dropped:
            if entry["dropped"]:
                raise AssertionError(
                    f"telemetry series {entry['series']!r} {entry['labels']} "
                    f"evicted {entry['dropped']} sample(s) mid-bench; the "
                    "report's series-derived numbers would be partial"
                )
    finally:
        observability.reset()
        observability.HUB.reset()
        if not was_enabled:
            observability.disable()

    meta = run_metadata(
        seed=_MASTER_KEY.hex(),
        config=", ".join(label for label, _ in default_campaign_configs()),
        scenarios=scenario_names,
    )
    return build_report(
        results,
        paper_checks,
        quick=quick,
        meta=meta,
        series_dropped=series_dropped,
    )


def telemetry_dropped_entries(hub) -> list[dict]:
    """Per-series ring-drop counts from one hub, JSON-ready and sorted.

    Zero counts are embedded too: the report states positively that no
    series overflowed, rather than staying silent about series it never
    looked at.
    """
    entries = [
        {
            "series": entry["name"],
            "labels": entry.get("labels", {}),
            "dropped": int(entry.get("dropped", 0)),
        }
        for entry in hub.snapshot()["series"]
    ]
    entries.sort(key=lambda e: (e["series"], sorted(e["labels"].items())))
    return entries


def summarize(report: dict) -> str:
    """A terminal-friendly digest of one report."""
    lines = []
    status = "OK" if report["ok"] else "DIVERGED"
    profile = "quick" if report["quick"] else "full"
    lines.append(f"bench ({profile} profile): {status}")
    for name, check in report["paper_checks"].items():
        mark = "ok" if check["ok"] else "FAIL"
        lines.append(f"  paper check {name}: {mark}")
    lines.append(
        f"  {'scenario':<16} {'configuration':<24} "
        f"{'seconds':>9} {'ops/s':>10}  cipher calls"
    )
    for entry in report["scenarios"]:
        if entry.get("skipped"):
            lines.append(
                f"  {entry['scenario']:<16} {entry['config']:<24} "
                f"skipped: {entry['skipped']}"
            )
            continue
        cipher_calls = scenario_cipher_calls(entry)
        rate = entry["ops_per_second"]
        check = entry.get("paper_check")
        suffix = ""
        if check is not None:
            suffix = "  [formula ok]" if check["ok"] else "  [FORMULA DIVERGED]"
        lines.append(
            f"  {entry['scenario']:<16} {entry['config']:<24} "
            f"{entry['wall_seconds']:>9.4f} "
            f"{rate:>10.1f}  {cipher_calls}{suffix}"
        )
    return "\n".join(lines)
