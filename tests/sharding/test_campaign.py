"""Rotation crash campaign: epoch atomicity at every write boundary."""

import pytest

from repro.core.encrypted_db import EncryptionConfig
from repro.sharding.campaign import run_rotation_campaign

PLAINTEXT = EncryptionConfig(cell_scheme="plain", index_scheme="plain")


def test_limited_plaintext_sweep_recovers_to_exactly_one_side():
    result = run_rotation_campaign(
        rows=2, limit=8, modes=("cut",),
        configs=[("plaintext baseline", PLAINTEXT)],
    )
    assert result.ok
    (config,) = result.per_config
    assert config.rotation_boundaries > 0
    assert config.trials == 8
    assert config.recovered_pre + config.recovered_post == config.trials
    # The evenly-spaced sweep covers both early crashes (rollback to the
    # old epoch) and late ones (rollforward past the commit point).
    assert config.rollbacks > 0
    assert config.rollforwards > 0


def test_encrypted_sweep_with_torn_and_drop_modes():
    result = run_rotation_campaign(
        rows=2, limit=4,
        configs=[("fixed AEAD (EAX)", EncryptionConfig.paper_fixed("eax"))],
    )
    assert result.ok
    (config,) = result.per_config
    # limit boundaries x 3 modes, minus torn skips on payload-free ops.
    assert 4 <= config.trials <= 4 * 3


def test_matrix_mentions_the_workload_and_every_config():
    result = run_rotation_campaign(
        rows=2, limit=2, modes=("cut",),
        configs=[("plaintext baseline", PLAINTEXT)],
    )
    matrix = result.format_matrix()
    assert "key-rotation crash campaign" in matrix
    assert "plaintext baseline" in matrix
    assert "2 shards" in matrix


def test_parameter_validation():
    with pytest.raises(ValueError):
        run_rotation_campaign(rows=2, modes=("meteor",))
    with pytest.raises(ValueError):
        run_rotation_campaign(rows=2, shard_count=0)


def test_bounded_eax_rotation_sweep_is_pinned():
    # Exact counters and matrix of a bounded EAX sweep: a change to crash
    # point selection, the torn-write skip or the pre/post oracle shows here.
    result = run_rotation_campaign(
        rows=2, limit=8,
        configs=[("fixed AEAD (EAX)", EncryptionConfig.paper_fixed("eax"))],
    )
    (config,) = result.per_config
    assert (
        config.rotation_boundaries, config.trials, config.recovered_pre,
        config.recovered_post, config.rollbacks, config.rollforwards,
        config.violations,
    ) == (50, 20, 1, 19, 8, 5, [])
    assert result.format_matrix() == (
        "key-rotation crash campaign (2-row workload, 2 shards, modes "
        "cut/torn/drop, limit 8 crash points per configuration)\n"
        "configuration     boundaries  trials  pre  post  rollbacks  "
        "rollforwards  violations\n"
        "----------------  ----------  ------  ---  ----  ---------  "
        "------------  ----------\n"
        "fixed AEAD (EAX)  50          20      1    19    8          "
        "5             0"
    )
