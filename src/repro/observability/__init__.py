"""Observability: metrics, tracing, and instrumentation hooks.

Off by default.  Typical benchmark usage::

    from repro import observability

    observability.enable()        # before constructing the database
    db = EncryptedDatabase(key, config)   # primitives get instrumented
    ...                                   # run the workload
    print(observability.REGISTRY.snapshot())
    observability.disable()

See ``docs/observability.md`` for the metric catalogue and
``docs/audit.md`` for the security-event audit log built on top.
"""

from repro.observability.audit import (
    AUDIT,
    AuditError,
    AuditLog,
    canonical_lines,
    maybe_audit_cell_codec,
    maybe_audit_index_codec,
    maybe_audit_mac,
    read_events,
    write_events,
)
from repro.observability.export import (
    render_jsonl,
    render_prometheus,
    render_prometheus_samples,
    render_series_jsonl,
    series_dropped_samples,
    write_snapshot,
)
from repro.observability.flightrecorder import (
    GATED_CLASSES,
    RECORDER,
    FlightRecorder,
    load_flight,
    validate_flight_report,
    write_flight,
)
from repro.observability.health import (
    Alert,
    BaselineP99Rule,
    DeltaRule,
    HealthEngine,
    LeakBudgetRule,
    Rule,
    SloBurnRule,
    ThresholdRule,
    default_rules,
    load_rules,
    parse_rule,
)
from repro.observability.instrument import (
    InstrumentedAEAD,
    InstrumentedCipher,
    InstrumentedMAC,
    maybe_instrument_aead,
    maybe_instrument_cipher,
    maybe_instrument_mac,
    timed,
)
from repro.observability.metrics import (
    REGISTRY,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.observability.leakmon import PROBES, LeakMonitor, run_live_profile
from repro.observability.monitor import (
    run_monitor,
    validate_health_report,
    write_health,
)
from repro.observability.profile import (
    OperatorStats,
    QueryProfile,
    build_query_profiles,
    format_profile,
)
from repro.observability.runmeta import git_describe, run_metadata
from repro.observability.timeseries import (
    HUB,
    Series,
    TelemetryHub,
    scheme_label,
)
from repro.observability.trace import TRACER, Span, TraceContext, Tracer
from repro.observability.traceexport import (
    chrome_trace_document,
    render_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)


def enable() -> None:
    """Turn metric collection and tracing on (idempotent)."""
    REGISTRY.enable()


def disable() -> None:
    """Turn metric collection and tracing off (idempotent)."""
    REGISTRY.disable()


def enabled() -> bool:
    return REGISTRY.enabled


def reset() -> None:
    """Zero all metrics and drop all finished spans."""
    REGISTRY.reset()
    TRACER.reset()


__all__ = [
    "AUDIT",
    "GATED_CLASSES",
    "HUB",
    "PROBES",
    "RECORDER",
    "REGISTRY",
    "TRACER",
    "Alert",
    "AuditError",
    "AuditLog",
    "FlightRecorder",
    "BaselineP99Rule",
    "Counter",
    "DeltaRule",
    "HealthEngine",
    "Histogram",
    "LeakBudgetRule",
    "InstrumentedAEAD",
    "InstrumentedCipher",
    "InstrumentedMAC",
    "LeakMonitor",
    "MetricsRegistry",
    "OperatorStats",
    "QueryProfile",
    "Rule",
    "Series",
    "SloBurnRule",
    "Span",
    "TelemetryHub",
    "ThresholdRule",
    "TraceContext",
    "Tracer",
    "build_query_profiles",
    "canonical_lines",
    "chrome_trace_document",
    "default_rules",
    "disable",
    "enable",
    "enabled",
    "format_profile",
    "git_describe",
    "load_flight",
    "load_rules",
    "maybe_audit_cell_codec",
    "maybe_audit_index_codec",
    "maybe_audit_mac",
    "maybe_instrument_aead",
    "maybe_instrument_cipher",
    "maybe_instrument_mac",
    "parse_rule",
    "read_events",
    "render_chrome_trace",
    "render_jsonl",
    "render_prometheus",
    "render_prometheus_samples",
    "render_series_jsonl",
    "reset",
    "run_live_profile",
    "run_metadata",
    "run_monitor",
    "scheme_label",
    "series_dropped_samples",
    "timed",
    "validate_chrome_trace",
    "validate_flight_report",
    "validate_health_report",
    "write_chrome_trace",
    "write_events",
    "write_flight",
    "write_health",
    "write_snapshot",
]
