"""Declarative health rules evaluated against the telemetry hub.

Three rule shapes cover the monitoring playbook:

* **threshold** — the latest sample of every matching series compared
  against a limit (``cipher drift > 0``, ``degraded shards > 0``);
* **delta** — growth over a trailing tick window (``replayed records
  grew by more than N in the last W ticks``);
* **slo-burn** — error-budget burn rate: the growth of a cumulative
  series over a window, divided by the budget the window allows; fires
  when the budget burns faster than 1×.

Rules are plain data (see :func:`parse_rule`), so a rule set can live in
a JSON file next to the workload it guards; :func:`default_rules` builds
the built-in set — Sect. 4 measured≠predicted drift, WAL
replay/fallback, shard quarantine/degraded mounts, leakage budgets, and
p99 latency regression against a pinned bench baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.observability.flightrecorder import publish
from repro.observability.timeseries import Series, TelemetryHub

SEVERITY_INFO = "info"
SEVERITY_WARNING = "warning"
SEVERITY_CRITICAL = "critical"

_OPS = {
    ">": lambda value, limit: value > limit,
    ">=": lambda value, limit: value >= limit,
    "<": lambda value, limit: value < limit,
    "<=": lambda value, limit: value <= limit,
    "==": lambda value, limit: value == limit,
    "!=": lambda value, limit: value != limit,
}

#: Structural-leakage budget per scheme slug: how many structural leak
#: events (equality/prefix/frequency/linkage collisions plus accepted
#: forgeries) a monitored run may record before the ``leak-budget`` rule
#: fires.  The broken schemes leak *by design* — the paper's point — so
#: their budget is unbounded (None); the fixed AEAD schemes and the
#: plaintext baseline (no ciphertext to collide) must stay at zero.
LEAK_BUDGETS: dict[str, int | None] = {
    "plain": 0,
    "xor": None,
    "append": None,
    "dbsec2005": None,
    "aead-eax": 0,
    "aead-ocb": 0,
}


@dataclass(frozen=True)
class Alert:
    """One rule firing against one series."""

    rule: str
    severity: str
    series: str
    labels: dict
    tick: int
    value: float
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "series": self.series,
            "labels": dict(sorted(self.labels.items())),
            "tick": self.tick,
            "value": self.value,
            "message": self.message,
        }


def _matches(series: Series, pattern: str, labels: dict | None) -> bool:
    """Name match (exact, or prefix via a trailing ``*``) plus label
    subset match."""
    if pattern.endswith("*"):
        if not series.name.startswith(pattern[:-1]):
            return False
    elif series.name != pattern:
        return False
    for key, value in (labels or {}).items():
        if series.labels.get(key) != str(value):
            return False
    return True


class Rule:
    """Base: ``evaluate`` returns the alerts this rule fires right now."""

    kind = "rule"

    def __init__(
        self,
        name: str,
        series: str,
        severity: str = SEVERITY_WARNING,
        labels: dict | None = None,
    ) -> None:
        if severity not in (SEVERITY_INFO, SEVERITY_WARNING, SEVERITY_CRITICAL):
            raise ValueError(f"unknown severity {severity!r}")
        self.name = name
        self.series_pattern = series
        self.severity = severity
        self.labels = dict(labels or {})

    def matching(self, hub: TelemetryHub) -> list[Series]:
        return [
            series
            for series in hub.all_series(include_volatile=True)
            if _matches(series, self.series_pattern, self.labels)
        ]

    def evaluate(self, hub: TelemetryHub) -> list[Alert]:
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "series": self.series_pattern,
            "severity": self.severity,
            "labels": dict(sorted(self.labels.items())),
        }

    def _alert(self, series: Series, tick: int, value: float, message: str) -> Alert:
        return Alert(
            rule=self.name,
            severity=self.severity,
            series=series.name,
            labels=dict(series.labels),
            tick=tick,
            value=value,
            message=message,
        )


class ThresholdRule(Rule):
    """Latest sample of every matching series vs a fixed limit."""

    kind = "threshold"

    def __init__(
        self,
        name: str,
        series: str,
        op: str,
        limit: float,
        severity: str = SEVERITY_WARNING,
        labels: dict | None = None,
    ) -> None:
        super().__init__(name, series, severity, labels)
        if op not in _OPS:
            raise ValueError(f"unknown comparison {op!r}; available: {sorted(_OPS)}")
        self.op = op
        self.limit = limit

    def evaluate(self, hub: TelemetryHub) -> list[Alert]:
        alerts = []
        for series in self.matching(hub):
            sample = series.last()
            if sample is None:
                continue
            tick, value = sample
            if _OPS[self.op](value, self.limit):
                alerts.append(
                    self._alert(
                        series,
                        tick,
                        value,
                        f"{series.name} is {value:g} (limit: {self.op} "
                        f"{self.limit:g} fires)",
                    )
                )
        return alerts

    def describe(self) -> dict:
        description = super().describe()
        description.update({"op": self.op, "limit": self.limit})
        return description


class DeltaRule(Rule):
    """Growth of a series over a trailing tick window vs a limit."""

    kind = "delta"

    def __init__(
        self,
        name: str,
        series: str,
        max_increase: float,
        window: int,
        severity: str = SEVERITY_WARNING,
        labels: dict | None = None,
    ) -> None:
        super().__init__(name, series, severity, labels)
        if window < 1:
            raise ValueError("window must be at least 1 tick")
        self.max_increase = max_increase
        self.window = window

    def evaluate(self, hub: TelemetryHub) -> list[Alert]:
        alerts = []
        now = hub.current_tick
        for series in self.matching(hub):
            recent = series.window(self.window, now)
            if len(recent) < 2:
                continue
            increase = recent[-1][1] - recent[0][1]
            if increase > self.max_increase:
                alerts.append(
                    self._alert(
                        series,
                        recent[-1][0],
                        increase,
                        f"{series.name} grew by {increase:g} over the last "
                        f"{self.window} tick(s) (limit {self.max_increase:g})",
                    )
                )
        return alerts

    def describe(self) -> dict:
        description = super().describe()
        description.update({"max_increase": self.max_increase, "window": self.window})
        return description


class SloBurnRule(Rule):
    """Error-budget burn: window growth ÷ (budget per window) > 1×."""

    kind = "slo-burn"

    def __init__(
        self,
        name: str,
        series: str,
        budget: float,
        window: int,
        severity: str = SEVERITY_WARNING,
        labels: dict | None = None,
    ) -> None:
        super().__init__(name, series, severity, labels)
        if budget <= 0:
            raise ValueError("budget must be positive (use threshold for zero)")
        if window < 1:
            raise ValueError("window must be at least 1 tick")
        self.budget = budget
        self.window = window

    def evaluate(self, hub: TelemetryHub) -> list[Alert]:
        alerts = []
        now = hub.current_tick
        for series in self.matching(hub):
            recent = series.window(self.window, now)
            if not recent:
                continue
            start = recent[0][1] if len(recent) > 1 else 0.0
            burn = (recent[-1][1] - start) / self.budget
            if burn > 1.0:
                alerts.append(
                    self._alert(
                        series,
                        recent[-1][0],
                        burn,
                        f"{series.name} burned {burn:.2f}x its error budget "
                        f"({self.budget:g} per {self.window} tick(s))",
                    )
                )
        return alerts

    def describe(self) -> dict:
        description = super().describe()
        description.update({"budget": self.budget, "window": self.window})
        return description


class LeakBudgetRule(Rule):
    """Structural leakage vs the per-scheme budget table.

    Watches ``leak.structural`` series (one per monitored scheme, the
    monitor sums the structural probe counters into it) and fires when a
    scheme with a finite budget exceeds it.  Schemes with budget None
    are exempt: the broken schemes leak by construction and the paper's
    claim is exactly that.
    """

    kind = "leak-budget"

    def __init__(
        self,
        name: str = "leak-budget",
        series: str = "leak.structural",
        budgets: dict[str, int | None] | None = None,
        label_key: str = "scheme",
        severity: str = SEVERITY_CRITICAL,
    ) -> None:
        super().__init__(name, series, severity)
        self.budgets = dict(LEAK_BUDGETS if budgets is None else budgets)
        self.label_key = label_key

    def evaluate(self, hub: TelemetryHub) -> list[Alert]:
        alerts = []
        for series in self.matching(hub):
            scheme = series.labels.get(self.label_key)
            budget = self.budgets.get(scheme, 0)
            if budget is None:
                continue
            sample = series.last()
            if sample is None:
                continue
            tick, value = sample
            if value > budget:
                alerts.append(
                    self._alert(
                        series,
                        tick,
                        value,
                        f"scheme {scheme!r} recorded {value:g} structural "
                        f"leak event(s); its budget is {budget:g}",
                    )
                )
        return alerts

    def describe(self) -> dict:
        description = super().describe()
        description.update(
            {"budgets": dict(sorted(self.budgets.items(), key=lambda kv: kv[0])),
             "label_key": self.label_key}
        )
        return description


class BaselineP99Rule(Rule):
    """p99 latency vs a pinned ``BENCH_<n>.json`` baseline.

    Watches the volatile ``*.seconds.p99`` series the monitor samples
    from the registry and compares each against the same histogram's p99
    in the baseline report entry for the matching (scenario, config).
    Wall time on shared runners is noisy, so the default tolerance
    matches the CI bench gate (fail beyond 4× baseline).
    """

    kind = "p99-baseline"

    def __init__(
        self,
        baseline: dict,
        name: str = "p99-regression",
        tolerance: float = 3.0,
        severity: str = SEVERITY_WARNING,
    ) -> None:
        super().__init__(name, "*", severity)
        self.tolerance = tolerance
        self._baseline_p99: dict[tuple[str, str, str], float] = {}
        for entry in baseline.get("scenarios", []):
            if entry.get("skipped"):
                continue
            for metric, summary in (entry.get("histograms") or {}).items():
                p99 = summary.get("p99")
                if p99:
                    key = (entry["scenario"], entry["config"], metric)
                    self._baseline_p99[key] = p99

    def evaluate(self, hub: TelemetryHub) -> list[Alert]:
        alerts = []
        for series in self.matching(hub):
            if not series.name.endswith(".seconds.p99"):
                continue
            metric = series.name[: -len(".p99")]
            key = (
                series.labels.get("scenario", ""),
                series.labels.get("config", ""),
                metric,
            )
            pinned = self._baseline_p99.get(key)
            sample = series.last()
            if pinned is None or sample is None:
                continue
            tick, value = sample
            if value > pinned * (1.0 + self.tolerance):
                alerts.append(
                    self._alert(
                        series,
                        tick,
                        value,
                        f"{metric} p99 {value:.6f}s is "
                        f"{value / pinned:.2f}x the pinned baseline "
                        f"{pinned:.6f}s (tolerance {1.0 + self.tolerance:.2f}x)",
                    )
                )
        return alerts

    def describe(self) -> dict:
        description = super().describe()
        description.update(
            {"tolerance": self.tolerance, "pinned_series": len(self._baseline_p99)}
        )
        return description


#: Declarative kinds ``parse_rule`` accepts from a JSON rule file.
_RULE_KINDS = {"threshold", "delta", "slo-burn"}


def parse_rule(spec: dict) -> Rule:
    """Build one rule from its declarative form.

    ``{"rule": "threshold", "name": ..., "series": ..., "op": ">",
    "limit": 0}`` — see the rule syntax table in
    ``docs/observability.md``.  Raises ValueError on anything malformed
    so a bad ``--rules`` file fails loudly, not silently green.
    """
    if not isinstance(spec, dict):
        raise ValueError("rule spec must be an object")
    kind = spec.get("rule")
    if kind not in _RULE_KINDS:
        raise ValueError(
            f"unknown rule kind {kind!r}; available: {', '.join(sorted(_RULE_KINDS))}"
        )
    name = spec.get("name")
    series = spec.get("series")
    if not isinstance(name, str) or not name:
        raise ValueError("rule needs a non-empty 'name'")
    if not isinstance(series, str) or not series:
        raise ValueError(f"rule {name!r} needs a non-empty 'series'")
    severity = spec.get("severity", SEVERITY_WARNING)
    labels = spec.get("labels")
    try:
        if kind == "threshold":
            return ThresholdRule(
                name, series, spec.get("op", ">"), float(spec["limit"]),
                severity=severity, labels=labels,
            )
        if kind == "delta":
            return DeltaRule(
                name, series, float(spec["max_increase"]), int(spec["window"]),
                severity=severity, labels=labels,
            )
        return SloBurnRule(
            name, series, float(spec["budget"]), int(spec["window"]),
            severity=severity, labels=labels,
        )
    except KeyError as exc:
        raise ValueError(f"rule {name!r} is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"rule {name!r}: {exc}") from None


def load_rules(specs: Sequence[dict]) -> list[Rule]:
    return [parse_rule(spec) for spec in specs]


def default_rules(
    baseline: dict | None = None,
    allow_replay: bool = False,
    allow_fallback: bool = False,
    p99_tolerance: float = 3.0,
) -> list[Rule]:
    """The built-in rule set.

    ``allow_replay`` / ``allow_fallback`` drop the WAL rules for
    workloads that *deliberately* crash and recover (the crash/rotation
    campaigns, the ``wal_replay`` bench scenario) — replay there is the
    behaviour under test, not an incident.  ``baseline`` (a parsed
    ``BENCH_<n>.json``) arms the p99 regression rule.
    """
    rules: list[Rule] = [
        ThresholdRule(
            "sect4-drift", "sect4.drift", ">", 0, severity=SEVERITY_CRITICAL
        ),
        ThresholdRule(
            "shard-degraded", "shard.degraded", ">", 0, severity=SEVERITY_CRITICAL
        ),
        ThresholdRule(
            "rows-quarantined",
            "recovery.rows_quarantined",
            ">",
            0,
            severity=SEVERITY_WARNING,
        ),
        LeakBudgetRule(),
        # Resilience-layer rules (PR 9): an unrepairable blob means the
        # scrubber found data with no authentic copy on any replica —
        # an incident everywhere.  Write failures and read-repairs are
        # absorbed by the quorum, so they warn rather than page.
        ThresholdRule(
            "scrub-unrepaired",
            "scrub.unrepaired",
            ">",
            0,
            severity=SEVERITY_CRITICAL,
        ),
        ThresholdRule(
            "replica-write-failures",
            "replica.write_failures",
            ">",
            0,
            severity=SEVERITY_WARNING,
        ),
        ThresholdRule(
            "replica-read-repairs",
            "replica.read_repairs",
            ">",
            0,
            severity=SEVERITY_WARNING,
        ),
    ]
    if not allow_fallback:
        rules.append(
            ThresholdRule(
                "wal-fallback",
                "wal.fallback.events",
                ">",
                0,
                severity=SEVERITY_CRITICAL,
            )
        )
    if not allow_replay:
        rules.append(
            ThresholdRule(
                "wal-replay",
                "wal.replay.records",
                ">",
                0,
                severity=SEVERITY_WARNING,
            )
        )
    if baseline is not None:
        rules.append(BaselineP99Rule(baseline, tolerance=p99_tolerance))
    return rules


class HealthEngine:
    """Evaluate a rule set; remember how often each rule fired."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        names = [rule.name for rule in rules]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(f"duplicate rule name(s): {', '.join(sorted(duplicates))}")
        self.rules = list(rules)
        self.fired: dict[str, int] = {rule.name: 0 for rule in rules}

    def evaluate(self, hub: TelemetryHub) -> list[Alert]:
        alerts = []
        for rule in self.rules:
            fired = rule.evaluate(hub)
            self.fired[rule.name] += len(fired)
            for alert in fired:
                fields = alert.to_dict()
                publish("alert", fields.pop("rule"), fields)
            alerts.extend(fired)
        return alerts

    def report(self) -> list[dict]:
        rows = []
        for rule in self.rules:
            row = rule.describe()
            row["fired"] = self.fired[rule.name]
            rows.append(row)
        return rows
