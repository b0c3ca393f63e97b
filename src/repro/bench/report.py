"""BENCH_<n>.json: the benchmark artifact format and its validator.

A report is one JSON document per bench run, schema ``repro-bench/1``.
CI uploads it as an artifact and fails the build when ``ok`` is false —
i.e. when any measured blockcipher-invocation or storage-overhead count
diverges from the paper's Sect. 4 cost model.  The format is versioned
so future PRs can extend it without breaking consumers that diff
historical artifacts.
"""

from __future__ import annotations

import json
import math
import platform
import re
import sys
from pathlib import Path

from repro.observability.runmeta import run_metadata

SCHEMA = "repro-bench/1"

#: Schema of the comparison artifact ``compare_reports`` produces.
DELTA_SCHEMA = "repro-bench-delta/1"

#: Default wall-time regression threshold: fail when a scenario gets
#: more than 25 % slower than the baseline.
DEFAULT_WALL_THRESHOLD = 0.25

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


def next_bench_path(directory: str | Path = ".") -> Path:
    """First unused ``BENCH_<n>.json`` path in ``directory`` (n from 1)."""
    directory = Path(directory)
    taken = set()
    if directory.is_dir():
        for entry in directory.iterdir():
            match = _BENCH_NAME.match(entry.name)
            if match:
                taken.add(int(match.group(1)))
    n = 1
    while n in taken:
        n += 1
    return directory / f"BENCH_{n}.json"


def build_report(
    scenario_results: list,
    paper_checks: dict,
    quick: bool,
    meta: dict | None = None,
    series_dropped: list | None = None,
) -> dict:
    """Assemble the full report document from scenario results.

    ``meta`` is the reproducibility block (seed, configuration names,
    git describe, interpreter); the harness supplies it so artifacts are
    self-describing, but reports without one stay valid — historical
    baselines predate the field.  ``series_dropped`` embeds the
    per-telemetry-series ring-drop counts the harness observed (all of
    which it requires to be zero); like ``meta``, baselines without the
    field stay valid.
    """
    scenario_dicts = [result.to_dict() for result in scenario_results]
    checks_ok = all(check.get("ok") for check in paper_checks.values())
    scenarios_ok = all(result.ok for result in scenario_results)
    report = {
        "schema": SCHEMA,
        "quick": quick,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "meta": meta if meta is not None else run_metadata(),
        "scenarios": scenario_dicts,
        "paper_checks": paper_checks,
        "ok": checks_ok and scenarios_ok,
    }
    if series_dropped is not None:
        report["series_dropped"] = series_dropped
    return report


def write_report(report: dict, path: str | Path, overwrite: bool = False) -> Path:
    """Write the report; refuses to clobber an existing file.

    Recorded trajectories (``BENCH_<n>.json``) are append-only history —
    silently overwriting one erases the baseline later runs are compared
    against.  Pass ``overwrite=True`` (CLI: ``--force``) for scratch
    paths that are meant to be replaced.
    """
    path = Path(path)
    if path.exists() and not overwrite:
        raise FileExistsError(
            f"{path} already exists; refusing to overwrite a recorded "
            f"benchmark (use --force, or let the output auto-number)"
        )
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def validate_report(report: dict) -> list[str]:
    """Structural problems with a report document (empty = valid)."""
    problems = []
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    if report.get("schema") != SCHEMA:
        problems.append(f"schema is {report.get('schema')!r}, expected {SCHEMA!r}")
    if not isinstance(report.get("ok"), bool):
        problems.append("missing boolean 'ok'")
    if not isinstance(report.get("quick"), bool):
        problems.append("missing boolean 'quick'")
    meta = report.get("meta")
    if meta is not None:
        # Optional for historical baselines; structured when present.
        if not isinstance(meta, dict):
            problems.append("'meta' must be an object when present")
        else:
            for field in ("python", "platform", "git_describe"):
                if field not in meta:
                    problems.append(f"meta missing {field!r}")
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        problems.append("'scenarios' must be a non-empty list")
        scenarios = []
    for index, entry in enumerate(scenarios):
        where = f"scenarios[{index}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} is not an object")
            continue
        for field in ("scenario", "config", "wall_seconds", "ops", "counters"):
            if field not in entry:
                problems.append(f"{where} missing {field!r}")
        wall = entry.get("wall_seconds")
        if not isinstance(wall, (int, float)) or wall < 0:
            problems.append(f"{where}.wall_seconds is not a non-negative number")
        check = entry.get("paper_check")
        if check is not None and not isinstance(check.get("ok"), bool):
            problems.append(f"{where}.paper_check missing boolean 'ok'")
    checks = report.get("paper_checks")
    if not isinstance(checks, dict) or not checks:
        problems.append("'paper_checks' must be a non-empty object")
    else:
        for name, check in checks.items():
            if not isinstance(check, dict) or not isinstance(check.get("ok"), bool):
                problems.append(f"paper_checks[{name!r}] missing boolean 'ok'")
    series_dropped = report.get("series_dropped")
    if series_dropped is not None:
        # Optional for historical baselines; structured when present.
        if not isinstance(series_dropped, list):
            problems.append("'series_dropped' must be a list when present")
        else:
            for index, entry in enumerate(series_dropped):
                where = f"series_dropped[{index}]"
                if not isinstance(entry, dict):
                    problems.append(f"{where} is not an object")
                    continue
                if not isinstance(entry.get("series"), str) or not entry.get("series"):
                    problems.append(f"{where} needs a non-empty 'series'")
                dropped = entry.get("dropped")
                if not isinstance(dropped, int) or dropped < 0:
                    problems.append(f"{where}.dropped must be a non-negative int")
    return problems


def scenario_cipher_calls(entry: dict) -> int:
    """Total blockcipher invocations one scenario entry recorded."""
    return sum(
        value
        for counter, value in (entry.get("counters") or {}).items()
        if counter.startswith("cipher.")
    )


def load_report(path: str | Path) -> dict:
    """Read and validate a report file; raises ValueError on problems."""
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read baseline report {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc.msg}") from None
    problems = validate_report(document)
    if problems:
        raise ValueError(f"{path} is not a valid bench report: {problems[0]}")
    return document


def compare_reports(
    baseline: dict,
    current: dict,
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
) -> dict:
    """Per-scenario deltas of ``current`` against ``baseline``.

    Wall-time regressions are gated by ``wall_threshold`` (fractional
    slowdown) and only judged when both reports ran the same size
    profile — quick-vs-full timings are not comparable.  Cipher counts
    are deterministic per profile, so under matching profiles *any*
    increase is a regression.  A NaN ``wall_threshold`` raises
    :class:`ValueError`: no slowdown compares greater than it, so it
    would silently pass every wall-time regression.
    """
    if math.isnan(wall_threshold):
        raise ValueError("wall_threshold must not be NaN")
    profiles_match = baseline.get("quick") == current.get("quick")

    def keyed(report: dict) -> dict:
        return {
            (entry["scenario"], entry["config"]): entry
            for entry in report.get("scenarios", [])
            if not entry.get("skipped")
        }

    base_entries, current_entries = keyed(baseline), keyed(current)
    entries = []
    regressions = []
    for key in sorted(base_entries.keys() & current_entries.keys()):
        base, now = base_entries[key], current_entries[key]
        wall_base, wall_now = base["wall_seconds"], now["wall_seconds"]
        cipher_base = scenario_cipher_calls(base)
        cipher_now = scenario_cipher_calls(now)
        wall_ratio = (wall_now / wall_base) if wall_base else None
        entry = {
            "scenario": key[0],
            "config": key[1],
            "wall_seconds_baseline": wall_base,
            "wall_seconds": wall_now,
            "wall_ratio": wall_ratio,
            "cipher_calls_baseline": cipher_base,
            "cipher_calls": cipher_now,
            "cipher_delta": cipher_now - cipher_base,
        }
        reasons = []
        if profiles_match:
            if wall_ratio is not None and wall_ratio > 1.0 + wall_threshold:
                reasons.append(
                    f"wall time {wall_now:.4f}s is {wall_ratio:.2f}x baseline "
                    f"{wall_base:.4f}s (threshold {1.0 + wall_threshold:.2f}x)"
                )
            if cipher_now > cipher_base:
                reasons.append(
                    f"cipher calls grew {cipher_base} -> {cipher_now} "
                    f"(+{cipher_now - cipher_base})"
                )
        entry["regression"] = bool(reasons)
        entries.append(entry)
        for reason in reasons:
            regressions.append(f"{key[0]}/{key[1]}: {reason}")
    missing = sorted(base_entries.keys() - current_entries.keys())
    for scenario, config in missing:
        regressions.append(f"{scenario}/{config}: present in baseline, missing now")
    return {
        "schema": DELTA_SCHEMA,
        "profiles_match": profiles_match,
        "wall_threshold": wall_threshold,
        "baseline_quick": baseline.get("quick"),
        "current_quick": current.get("quick"),
        "entries": entries,
        "missing_scenarios": [list(key) for key in missing],
        "regressions": regressions,
        "ok": not regressions,
    }


def summarize_comparison(delta: dict) -> str:
    """Terminal-friendly digest of one comparison document."""
    lines = []
    status = "OK" if delta["ok"] else "REGRESSED"
    lines.append(
        f"baseline comparison: {status} "
        f"(wall threshold {delta['wall_threshold'] * 100:.0f}%)"
    )
    if not delta["profiles_match"]:
        lines.append(
            "  note: baseline and current ran different size profiles — "
            "deltas reported, regressions not judged"
        )
    lines.append(
        f"  {'scenario':<16} {'configuration':<24} "
        f"{'wall Δ':>8} {'cipher Δ':>9}"
    )
    for entry in delta["entries"]:
        ratio = entry["wall_ratio"]
        wall = f"{(ratio - 1.0) * 100:+.0f}%" if ratio is not None else "n/a"
        mark = "  REGRESSION" if entry["regression"] else ""
        lines.append(
            f"  {entry['scenario']:<16} {entry['config']:<24} "
            f"{wall:>8} {entry['cipher_delta']:>+9d}{mark}"
        )
    return "\n".join(lines)


def divergences(report: dict) -> list[str]:
    """Human-readable list of every failed paper cross-check."""
    failures = []
    for name, check in (report.get("paper_checks") or {}).items():
        if not check.get("ok"):
            failures.append(f"paper check {name!r} failed: {json.dumps(check)}")
    for entry in report.get("scenarios") or []:
        check = entry.get("paper_check")
        if check is not None and not check.get("ok"):
            failures.append(
                f"{entry.get('scenario')}/{entry.get('config')}: "
                f"predicted {check.get('predicted_cipher_calls')} cipher calls, "
                f"measured {check.get('measured_cipher_calls')}"
            )
    return failures
