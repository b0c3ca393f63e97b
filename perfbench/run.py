"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload point_mix --seed 1 --seconds 6 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  The line before it holds the workload's full
report: every metric it measures by name, sample counts, the image hash
and any problem found.  Exit status is 0 when the run completed, 2 on a
usage error or when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: The workload names, in reporting order (kept here so ``--help`` and
#: argument errors work without importing the program).
WORKLOAD_NAMES = ("point_mix", "range_scan", "durable_ingest", "point_mix_monitored")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program under test from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported repro from {repro.__file__}, not from this "
              f"checkout's {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import identity, workloads
    from perfbench.layers import PER_LAYER_UNITS
    from perfbench.speed import at_reference_speed

    run = workloads.execute(args.workload, args.seed, args.seconds, bool(args.trace))
    facts = {"image_sha256": run.facts["image_sha256"]}
    factor = run.gauge.factor()
    if args.trace:
        wall = workloads.layer_report(run)
        # Per-layer times carry the run's median factor: they are totals
        # over the whole run, not single intervals.
        layer = at_reference_speed(wall, factor)
        facts["primitives.calls_per_op"] = layer["primitives.calls_per_op"]
        metrics = _metric_block(layer, PER_LAYER_UNITS)
        report = {"per_layer": layer}
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        OUT.mkdir(parents=True, exist_ok=True)
        spans.write_text(json.dumps(run.probe.tracer.spans), encoding="utf-8")
    else:
        workload = workloads.WORKLOADS[args.workload]
        wall = workloads.workload_report(run, workload, lambda begin, end: 1.0)
        full = workloads.workload_report(run, workload, run.gauge.factor_near)
        metrics = _metric_block(full, workloads.END_TO_END_UNITS)
        report = {"end_to_end": full}
    run.problems += identity.check_and_record(
        OUT / "identity", args.workload, args.seed, args.seconds, facts
    )
    report.update(
        wall_clock=wall, speed_factor=factor, workload=args.workload,
        seed=args.seed, seconds=args.seconds, trace=args.trace,
        facts=run.facts, problems=run.problems,
    )
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
