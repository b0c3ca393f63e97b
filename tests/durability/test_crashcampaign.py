"""Crash campaign: exhaustive power cuts recover to pre- or post-commit."""

import pytest

from repro.core.encrypted_db import EncryptionConfig
from repro.durability.crashcampaign import (
    CRASH_MODES,
    _crash_points,
    run_crash_campaign,
)
from repro.observability.audit import AUDIT
from repro.observability.flightrecorder import RECORDER


PLAINTEXT = EncryptionConfig(cell_scheme="plain", index_scheme="plain")


def test_exhaustive_plaintext_sweep_never_finds_a_hybrid():
    result = run_crash_campaign(
        rows=2, configs=[("plaintext baseline", PLAINTEXT)],
        phases=("mutation",),
    )
    assert result.ok
    assert result.violations == []
    (config,) = result.per_config
    assert config.trials > 0
    assert config.recovered_pre + config.recovered_post == config.trials
    assert config.recovered_pre > 0 and config.recovered_post > 0
    assert config.wal_truncations > 0          # torn mode tears journals
    assert config.flaky_failures_retried > 0   # the flaky check ran


def test_encrypted_sweep_with_a_limit():
    result = run_crash_campaign(
        rows=2, limit=12,
        configs=[("fixed AEAD (EAX)", EncryptionConfig.paper_fixed("eax"))],
        phases=("mutation",),
    )
    assert result.ok
    (config,) = result.per_config
    # limit crash points x len(modes), minus torn skips on payload-free ops.
    assert 12 <= config.trials <= 12 * len(CRASH_MODES)


def test_crash_points_cover_first_and_last():
    assert _crash_points(10, None) == list(range(10))
    limited = _crash_points(100, 7)
    assert len(limited) == 7
    assert limited[0] == 0 and limited[-1] == 99
    assert limited == sorted(set(limited))
    assert _crash_points(3, 50) == [0, 1, 2]


def test_matrix_formats_and_modes_validate():
    result = run_crash_campaign(
        rows=2, limit=4, modes=("cut",),
        configs=[("plaintext baseline", PLAINTEXT)],
        phases=("mutation",),
    )
    matrix = result.format_matrix()
    assert "plaintext baseline" in matrix
    assert "crash" in matrix.lower()
    with pytest.raises(ValueError):
        run_crash_campaign(rows=2, modes=("meteor",))
    with pytest.raises(ValueError):
        run_crash_campaign(rows=2, phases=("teleport",))
    with pytest.raises(ValueError):
        run_crash_campaign(rows=2, phases=())


def test_rotation_phase_rides_along():
    result = run_crash_campaign(
        rows=2, limit=3, modes=("cut",),
        configs=[("plaintext baseline", PLAINTEXT)],
    )
    assert result.phases == ("mutation", "rotation")
    assert result.rotation is not None
    assert result.rotation.per_config[0].trials > 0
    assert result.ok
    matrix = result.format_matrix()
    assert "key-rotation crash campaign" in matrix


def test_bounded_eax_mutation_sweep_is_pinned():
    # Exact counters and matrix of a bounded EAX sweep: a change to crash
    # point selection, the torn-write skip or the pre/post oracle shows here.
    result = run_crash_campaign(
        rows=2, limit=12,
        configs=[("fixed AEAD (EAX)", EncryptionConfig.paper_fixed("eax"))],
        phases=("mutation",),
    )
    (config,) = result.per_config
    assert (
        config.boundaries, config.trials, config.recovered_pre,
        config.recovered_post, config.resilient_fallbacks,
        config.wal_truncations, config.flaky_failures_retried,
        config.violations,
    ) == (33, 30, 16, 14, 0, 6, 14, [])
    assert result.format_matrix() == (
        "crash-recovery campaign (2-row workload, modes cut/torn/drop, "
        "limit 12 crash points per configuration)\n"
        "configuration     boundaries  trials  pre  post  fallbacks  "
        "truncations  retried  violations\n"
        "----------------  ----------  ------  ---  ----  ---------  "
        "-----------  -------  ----------\n"
        "fixed AEAD (EAX)  33          30      16   14    0          "
        "6            14       0"
    )


def test_audit_neutrality_probe_leaves_no_audit_trace():
    # The probe turns the audit log on for one replay.  Afterwards the
    # log's switch, events and sequence number, and the flight
    # recorder's audit channel, are what they were before it ran.
    AUDIT.reset()
    RECORDER.reset()
    try:
        AUDIT.enable(timestamps=False)
        AUDIT.emit("before.probe")
        AUDIT.disable()
        before = AUDIT.events()
        recorded = RECORDER.records("audit")
        result = run_crash_campaign(
            rows=2, limit=4,
            configs=[("fixed AEAD (EAX)", EncryptionConfig.paper_fixed("eax"))],
            phases=("mutation",),
        )
        assert result.ok
        assert AUDIT.enabled is False
        assert AUDIT.events() == before
        assert RECORDER.records("audit") == recorded
        AUDIT.enable(timestamps=False)
        AUDIT.emit("after.probe")
        assert AUDIT.events()[-1]["seq"] == 2
    finally:
        AUDIT.reset()
        RECORDER.reset()
