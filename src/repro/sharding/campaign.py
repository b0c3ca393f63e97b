"""The rotation crash campaign: power-cut every rotation write boundary.

The rotation protocol of :mod:`repro.sharding.rotation` claims one
invariant — **epoch atomicity**: however the power dies mid-rotation, a
remount recovers every shard to exactly the old or the new key epoch,
never a mixture, with the cross-shard manifest verifying throughout.
This module makes the claim exhaustively checkable with the
boundary-sweep core it shares with the mutation campaign of
:mod:`repro.durability.crashcampaign`:

1. seed a keyspace and rotate it once crash-free on a pass-through
   :class:`~repro.durability.vdisk.CrashDisk` (every shard's blobs and
   the manifest share one disk, so one op counter sees every write
   boundary), snapshotting at each protocol phase the state a remount
   of the surviving bytes recovers to — per-shard epoch and logical
   dump, manifest verdict, and (for round-tripping schemes) point and
   range answers;
2. re-run seed + rotation once per (rotation boundary, crash mode)
   pair, catching the :class:`~repro.errors.PowerCutError`, remounting
   the survivor through the parallel keyspace recovery, and asserting
   the recovered state equals the snapshot just before or just after
   the cut.

Because both sides of the comparison go through the same remount
pipeline, the oracle is exact even for randomized codecs: re-encryption
under the new epoch is deterministic (seeded RNGs, counting nonces), so
matching snapshots match byte-for-byte in their dumps.

The reference run also checks the **online** half of the claim: at
every rotation phase boundary the live keyspace must answer the seeded
point and range queries identically to the pre-rotation baseline —
shards not currently rotating never notice a sibling's rotation.

An audit-neutrality side-check rides along: the full seed + rotate
leaves byte-identical disks with ``AUDIT`` enabled and disabled
(``rotation.*`` events are pure observation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.encrypted_db import EncryptionConfig
from repro.core.keys import KeyChain
from repro.engine.storage import dump_database
from repro.observability.flightrecorder import RECORDER
from repro.observability.timeseries import HUB
from repro.robustness.campaign import default_campaign_configs
from repro.robustness.reporting import format_detection_matrix, sweep_caption

from repro.durability.crashcampaign import (
    _CRASH_MASTER_KEY,
    _SCHEMA,
    _audit_neutrality_check,
    _Boundary,
    _round_trips,
    _row_values,
    _sweep_boundaries,
    CRASH_MODES,
)
from repro.durability.vdisk import CrashDisk, MemoryDisk, VirtualDisk
from repro.sharding.keyspace import ShardedKeyspace

_ROTATED_MASTER_KEY = b"crashcampaign-rotated-key-765432"


def _seed_keyspace(keyspace: ShardedKeyspace, rows: int) -> None:
    """The pre-rotation workload: table, rows, both index kinds, fold."""
    keyspace.create_table(_SCHEMA)
    for i in range(rows):
        keyspace.insert("people", _row_values(i))
    keyspace.create_index("people_by_name", "people", "name", kind="table")
    keyspace.create_index("people_by_id", "people", "id", kind="btree")
    keyspace.checkpoint()


def _query_answers(keyspace: ShardedKeyspace, rows: int) -> dict[str, Any]:
    """Point answers per seeded key plus one fan-out range answer."""
    answers: dict[str, Any] = {
        "range": keyspace.select_range("people", "id", 0, rows + 10),
    }
    for i in range(rows):
        answers[f"id:{i}"] = keyspace.select_equals("people", "id", i)
    answers["name"] = keyspace.select_equals(
        "people", "name", _row_values(min(2, rows - 1))[1]
    )
    return answers


def _recovered_state(
    survivor: MemoryDisk,
    chain: KeyChain,
    config: EncryptionConfig,
    rows: int,
    include_queries: bool,
) -> tuple[dict[str, Any], ShardedKeyspace]:
    """Remount the surviving bytes (parallel per-shard recovery) and
    reduce the result to the comparable observable state."""
    keyspace = ShardedKeyspace.open(survivor, chain, config)
    state: dict[str, Any] = {
        "manifest": keyspace.recovery.manifest,
        "shards": tuple(
            (shard.epoch, shard.degraded, dump_database(shard.manager.database))
            for shard in keyspace.shards
        ),
    }
    if include_queries:
        state["queries"] = _query_answers(keyspace, rows)
    return state, keyspace


@dataclass
class ConfigRotationResult:
    """Rotation sweep outcome for one scheme configuration."""

    config: str
    rotation_boundaries: int = 0
    trials: int = 0
    recovered_pre: int = 0
    recovered_post: int = 0
    rollbacks: int = 0
    rollforwards: int = 0
    violations: list[str] = field(default_factory=list)


@dataclass
class RotationCampaignResult:
    """The full rotation campaign: one sweep per configuration."""

    rows: int
    shard_count: int
    limit: int | None
    modes: tuple[str, ...]
    per_config: list[ConfigRotationResult] = field(default_factory=list)

    @property
    def violations(self) -> list[str]:
        return [v for result in self.per_config for v in result.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def format_matrix(self) -> str:
        return format_detection_matrix(
            [
                "boundaries", "trials", "pre", "post",
                "rollbacks", "rollforwards", "violations",
            ],
            [
                (
                    result.config,
                    [
                        result.rotation_boundaries,
                        result.trials,
                        result.recovered_pre,
                        result.recovered_post,
                        result.rollbacks,
                        result.rollforwards,
                        len(result.violations),
                    ],
                )
                for result in self.per_config
            ],
            caption=sweep_caption(
                "key-rotation crash campaign",
                f"{self.rows}-row workload, {self.shard_count} shards, "
                f"modes {'/'.join(self.modes)}",
                self.limit,
            ),
        )


def _open_keyspace(
    disk: VirtualDisk, config: EncryptionConfig, shard_count: int
) -> ShardedKeyspace:
    return ShardedKeyspace.open(
        disk, KeyChain.single(_CRASH_MASTER_KEY), config,
        shard_count=shard_count, workers=1,
    )


def _reference_rotation(
    label: str,
    config: EncryptionConfig,
    rows: int,
    shard_count: int,
    result: ConfigRotationResult,
) -> tuple[list[_Boundary], list[str]]:
    """Seed + rotate crash-free, snapshotting every phase boundary."""
    include_queries = _round_trips(config, _CRASH_MASTER_KEY)
    full_chain = KeyChain([_CRASH_MASTER_KEY, _ROTATED_MASTER_KEY])
    disk = CrashDisk(MemoryDisk())
    keyspace = _open_keyspace(disk, config, shard_count)
    _seed_keyspace(keyspace, rows)
    baseline = _query_answers(keyspace, rows) if include_queries else None
    snapshots: list[_Boundary] = []

    def snapshot(phase_label: str, check_live: bool) -> None:
        state, _ = _recovered_state(
            disk.survivor(), full_chain, config, rows, include_queries
        )
        snapshots.append(_Boundary(phase_label, disk.op_count, state))
        if include_queries and check_live:
            if _query_answers(keyspace, rows) != baseline:
                result.violations.append(
                    f"{label}: live keyspace answers changed at rotation "
                    f"phase {phase_label!r} — a sibling's rotation is visible"
                )

    snapshot("seeded", check_live=False)
    keyspace.rotate(
        _ROTATED_MASTER_KEY,
        on_phase=lambda sid, phase: snapshot(f"{sid}:{phase}", check_live=True),
    )
    return snapshots, list(disk.op_log)


def _sweep_rotation(
    label: str,
    config: EncryptionConfig,
    rows: int,
    shard_count: int,
    limit: int | None,
    modes: tuple[str, ...],
) -> ConfigRotationResult:
    result = ConfigRotationResult(config=label)
    include_queries = _round_trips(config, _CRASH_MASTER_KEY)
    full_chain = KeyChain([_CRASH_MASTER_KEY, _ROTATED_MASTER_KEY])
    snapshots, op_log = _reference_rotation(
        label, config, rows, shard_count, result
    )
    start = snapshots[0].ops  # ops before this index belong to seeding
    result.rotation_boundaries = len(op_log) - start

    def replay(disk: VirtualDisk) -> None:
        keyspace = _open_keyspace(disk, config, shard_count)
        _seed_keyspace(keyspace, rows)
        keyspace.rotate(_ROTATED_MASTER_KEY)

    def recover(survivor: VirtualDisk, op_index: int, mode: str) -> dict:
        RECORDER.tick()
        RECORDER.record_injection(
            "crash", config=label, mode=mode, op_index=op_index
        )
        state, recovered = _recovered_state(
            survivor, full_chain, config, rows, include_queries
        )
        epochs = [shard.epoch for shard in recovered.shards]
        if any(epoch not in (0, 1) for epoch in epochs):
            result.violations.append(
                f"{label}: crash at boundary {op_index} ({mode}) "
                f"recovered shard epochs {epochs} outside the chain"
            )
        result.rollbacks += sum(
            1 for s in recovered.shards if s.resolution.rolled_back
        )
        result.rollforwards += sum(
            1 for s in recovered.shards if s.resolution.rolled_forward
        )
        return state

    def detected(op_index: int, mode: str) -> None:
        RECORDER.record_detection(
            "crash", config=label, mode=mode, op_index=op_index,
            via="rotation-recovery",
        )

    _sweep_boundaries(
        result, snapshots, op_log, start, limit, modes, replay, recover, detected
    )
    _audit_neutrality_check(result, replay)
    return result


def run_rotation_campaign(
    rows: int = 4,
    shard_count: int = 2,
    limit: int | None = None,
    configs: list[tuple[str, EncryptionConfig]] | None = None,
    modes: tuple[str, ...] = CRASH_MODES,
) -> RotationCampaignResult:
    """Sweep every (or ``limit`` evenly-spaced) rotation write boundary
    under every crash mode, for every configuration."""
    for mode in modes:
        if mode not in CRASH_MODES:
            raise ValueError(f"unknown crash mode {mode!r}")
    if shard_count < 1:
        raise ValueError("shard_count must be at least 1")
    configs = configs if configs is not None else default_campaign_configs()
    campaign = RotationCampaignResult(
        rows=rows, shard_count=shard_count, limit=limit, modes=tuple(modes)
    )
    for label, config in configs:
        result = _sweep_rotation(label, config, rows, shard_count, limit, modes)
        campaign.per_config.append(result)
        if HUB.enabled:
            labels = {"config": label}
            HUB.tick()
            HUB.record("rotation.campaign.trials", result.trials, labels=labels)
            HUB.record(
                "rotation.campaign.recovered_pre", result.recovered_pre, labels=labels
            )
            HUB.record(
                "rotation.campaign.recovered_post",
                result.recovered_post,
                labels=labels,
            )
            HUB.record("rotation.campaign.rollbacks", result.rollbacks, labels=labels)
            HUB.record(
                "rotation.campaign.rollforwards", result.rollforwards, labels=labels
            )
            HUB.record(
                "rotation.campaign.violations",
                len(result.violations),
                labels=labels,
            )
    return campaign
