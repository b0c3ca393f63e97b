"""The crash campaign: power-cut the disk at *every* write boundary.

The journal protocol of :mod:`repro.durability.manager` claims one
invariant — **atomic logical mutations**: however the power dies, a
remount recovers the database to exactly the state before or after some
logical operation, never a hybrid.  This module makes the claim
exhaustively checkable:

1. run a seeded workload once on a pass-through
   :class:`~repro.durability.vdisk.CrashDisk` to learn every write
   boundary, recording after each logical step the *recovered* image a
   remount of the surviving bytes produces (the oracle dumps);
2. re-run the workload once per (boundary, crash mode) pair — clean cut,
   torn write, dropped write-cache — catching the
   :class:`~repro.errors.PowerCutError`, remounting the survivor, and
   asserting the recovered image is byte-identical to the oracle dump of
   the step boundary just before or just after the cut.

Both sides of the comparison go through the same recovery pipeline, so
the byte oracle is exact even for randomized codecs: recovery replays
*stored* cell bytes physically and rebuilds indexes with freshly
constructed (deterministically seeded) codecs.

Two side-checks ride along, mirroring the acceptance criteria:

* **audit neutrality** — the full workload leaves byte-identical disks
  with ``AUDIT`` enabled and disabled (``wal.*`` events are pure
  observation);
* **flaky-backend equivalence** — the workload through a
  :class:`~repro.durability.vdisk.FlakyDisk` under a
  :class:`~repro.durability.retry.RetryingDisk` lands on the same final
  bytes as the fault-free run (transient failures are invisible).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sharding.campaign import ConfigRotationResult, RotationCampaignResult

from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.engine.database import Database
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database
from repro.errors import PowerCutError, ReproError
from repro.observability.audit import AUDIT
from repro.primitives.rng import DeterministicRandom
from repro.robustness.campaign import default_campaign_configs
from repro.robustness.reporting import format_detection_matrix, sweep_caption

from repro.durability.manager import DurableDatabase
from repro.durability.retry import RetryingDisk, RetryPolicy
from repro.durability.vdisk import (
    BYTE_OPS,
    CrashDisk,
    CrashPlan,
    FlakyDisk,
    MemoryDisk,
    VirtualDisk,
)
from repro.durability.wal import journal_mac

CRASH_MODES = ("cut", "torn", "drop")

#: Campaign phases: "mutation" sweeps the journaled workload of this
#: module; "rotation" sweeps the key-rotation protocol of
#: :mod:`repro.sharding.campaign` (imported lazily — it builds on this
#: module's helpers).
CAMPAIGN_PHASES = ("mutation", "rotation")

_CRASH_MASTER_KEY = b"crashcampaign-master-key-0123456"

_SCHEMA = TableSchema("people", [
    Column("id", ColumnType.INT),          # sensitive (default)
    Column("name", ColumnType.TEXT),       # sensitive (default)
    Column("city", ColumnType.TEXT, sensitive=False),
])


def _row_values(i: int) -> list:
    return [i, f"name-{i:03d}-{'x' * (8 + i % 5)}", f"city-{i % 3}"]


def _mount(
    disk: VirtualDisk, config: EncryptionConfig, master_key: bytes
) -> DurableDatabase:
    """Open a durable database with fresh codec plumbing for ``config``.

    A fresh :class:`EncryptedDatabase` per mount is what a real restart
    does — and what makes recovery deterministic: every codec starts
    from its seeded initial state."""
    enc = EncryptedDatabase(master_key, config)
    return DurableDatabase.open(
        disk,
        journal_mac(enc.keys),
        cell_codec=enc.cell_codec,
        index_codec_factory=enc._build_index_codec,
    )


def _run_workload(manager: DurableDatabase, rows: int, on_step=None) -> None:
    """The seeded workload: DDL, inserts, two indexes, checkpoints,
    updates, deletes, and post-checkpoint tail inserts — every journal
    op kind, on both sides of a checkpoint."""
    def step(label: str) -> None:
        if on_step is not None:
            on_step(label)

    manager.create_table(_SCHEMA)
    step("create_table")
    row_ids = []
    for i in range(rows):
        row_ids.append(manager.insert("people", _row_values(i)))
        step(f"insert {i}")
    manager.create_index("people_by_name", "people", "name", kind="table")
    step("create_index table")
    manager.create_index("people_by_id", "people", "id", kind="btree")
    step("create_index btree")
    manager.checkpoint()
    step("checkpoint 1")
    for i in range(0, rows, 2):
        manager.update_value("people", row_ids[i], "name", f"renamed-{i:03d}")
        step(f"update {i}")
    if rows >= 2:
        manager.delete_row("people", row_ids[1])
        step("delete")
    manager.checkpoint()
    step("checkpoint 2")
    for i in range(rows, rows + 2):
        manager.insert("people", _row_values(i))
        step(f"tail insert {i}")


def _round_trips(config: EncryptionConfig, master_key: bytes) -> bool:
    """True when typed reads round-trip (everything but the XOR-Scheme,
    whose paper-faithful decode returns the still-padded block)."""
    db = EncryptedDatabase(master_key, config)
    db.create_table(_SCHEMA)
    row_id = db.insert("people", _row_values(0))
    try:
        return db.get_row("people", row_id) == _row_values(0)
    except ReproError:
        return False


def _logical_state(db: Database, include_indexes: bool) -> dict:
    """Decoded observable content (cells; index pairs when comparable)."""
    tables = {}
    for name in db.table_names:
        table = db.table(name)
        tables[name] = {
            row_id: tuple(
                db._plain_cell(table, row_id, position)
                for position in range(len(table.schema.columns))
            )
            for row_id in table.row_ids
        }
    state = {"tables": tables}
    if include_indexes:
        state["indexes"] = {
            name: tuple(sorted(db.index(name).structure.items()))
            for name in db.index_names
        }
    return state


@dataclass
class _Boundary:
    """Oracle entry: after step ``label``, ``ops`` write boundaries have
    run and a remount of the surviving bytes recovers exactly ``state``."""

    label: str
    ops: int
    state: Any


@dataclass
class ConfigCrashResult:
    """Sweep outcome for one scheme configuration."""

    config: str
    boundaries: int = 0
    trials: int = 0
    recovered_pre: int = 0
    recovered_post: int = 0
    resilient_fallbacks: int = 0
    wal_truncations: int = 0
    flaky_failures_retried: int = 0
    violations: list[str] = field(default_factory=list)


@dataclass
class CrashCampaignResult:
    """The full campaign: one sweep per configuration plus side-checks."""

    rows: int
    limit: int | None
    modes: tuple[str, ...]
    per_config: list[ConfigCrashResult] = field(default_factory=list)
    phases: tuple[str, ...] = ("mutation",)
    #: The rotation phase's own campaign result (None when not run).
    rotation: "RotationCampaignResult | None" = None

    @property
    def violations(self) -> list[str]:
        found = [v for result in self.per_config for v in result.violations]
        if self.rotation is not None:
            found.extend(self.rotation.violations)
        return found

    @property
    def ok(self) -> bool:
        return not self.violations

    def format_matrix(self) -> str:
        matrix = format_detection_matrix(
            [
                "boundaries", "trials", "pre", "post",
                "fallbacks", "truncations", "retried", "violations",
            ],
            [
                (
                    result.config,
                    [
                        result.boundaries,
                        result.trials,
                        result.recovered_pre,
                        result.recovered_post,
                        result.resilient_fallbacks,
                        result.wal_truncations,
                        result.flaky_failures_retried,
                        len(result.violations),
                    ],
                )
                for result in self.per_config
            ],
            caption=sweep_caption(
                "crash-recovery campaign",
                f"{self.rows}-row workload, modes {'/'.join(self.modes)}",
                self.limit,
            ),
        ) if self.per_config else ""
        if self.rotation is not None:
            tail = self.rotation.format_matrix()
            matrix = f"{matrix}\n\n{tail}" if matrix else tail
        return matrix


def _crash_points(total: int, limit: int | None) -> list[int]:
    if limit is None or total <= limit:
        return list(range(total))
    if limit <= 1:
        return [0]
    return sorted({round(i * (total - 1) / (limit - 1)) for i in range(limit)})


def _sweep_boundaries(
    result: ConfigCrashResult | ConfigRotationResult,
    boundaries: list[_Boundary],
    op_log: list[str],
    first: int,
    limit: int | None,
    modes: tuple[str, ...],
    replay: Callable[[VirtualDisk], None],
    recover: Callable[[VirtualDisk, int, str], Any],
    on_recovered: Callable[[int, str], None] | None = None,
) -> None:
    """Power-cut write boundaries ``first`` onwards (every one, or
    ``limit`` evenly spaced) under each crash mode, and require each
    recovery to land on exactly the oracle state just before or just
    after the cut.

    ``boundaries`` are the reference run's snapshots in op order, the
    first at or before ``first``.  ``replay(disk)`` reruns the workload
    on a fresh disk until the planned cut raises;
    ``recover(survivor, op_index, mode)`` remounts the surviving bytes
    and returns the state to compare.  ``on_recovered(op_index, mode)``
    runs after each trial that recovered to either side."""
    label = result.config
    cutoffs = [boundary.ops for boundary in boundaries]
    for offset in _crash_points(len(op_log) - first, limit):
        op_index = first + offset
        for mode in modes:
            if mode == "torn" and op_log[op_index] not in BYTE_OPS:
                continue  # tears identically to "cut" on payload-free ops
            disk = CrashDisk(MemoryDisk(), CrashPlan(op_index, mode))
            try:
                replay(disk)
            except PowerCutError:
                pass
            else:
                result.violations.append(
                    f"{label}: planned crash at boundary {op_index} "
                    f"({mode}) never fired"
                )
                continue
            result.trials += 1
            try:
                state = recover(disk.survivor(), op_index, mode)
            except Exception as exc:
                result.violations.append(
                    f"{label}: recovery raised after crash at boundary "
                    f"{op_index} ({mode}): {type(exc).__name__}: {exc}"
                )
                continue
            # Boundary op_index interrupts the step *after* the last
            # oracle entry whose op count is <= op_index.
            pre_index = bisect_right(cutoffs, op_index) - 1
            pre = boundaries[pre_index]
            post = boundaries[min(pre_index + 1, len(boundaries) - 1)]
            if state == post.state:
                result.recovered_post += 1
            elif state == pre.state:
                result.recovered_pre += 1
            else:
                result.violations.append(
                    f"{label}: crash at boundary {op_index} ({mode}, "
                    f"{op_log[op_index]}) recovered to a hybrid state — "
                    f"neither pre nor post {pre.label!r}"
                )
                continue
            if on_recovered is not None:
                on_recovered(op_index, mode)


def _final_state(replay: Callable[[VirtualDisk], None]) -> dict[str, bytes]:
    disk = MemoryDisk()
    replay(disk)
    return disk.durable_state()


def _audit_neutrality_check(
    result: ConfigCrashResult | ConfigRotationResult,
    replay: Callable[[VirtualDisk], None],
) -> None:
    """The workload must store the same bytes with ``AUDIT`` off and on;
    the probe's audit events are neither kept nor published."""
    with AUDIT.isolated():
        quiet = _final_state(replay)
        AUDIT.enable()
        audited = _final_state(replay)
    if quiet != audited:
        result.violations.append(
            f"{result.config}: enabling audit hooks changed the stored bytes"
        )


def _sweep_config(
    label: str,
    config: EncryptionConfig,
    master_key: bytes,
    rows: int,
    limit: int | None,
    modes: tuple[str, ...],
) -> ConfigCrashResult:
    result = ConfigCrashResult(config=label)
    include_indexes = _round_trips(config, master_key)

    # The reference run: the workload crash-free, snapshotting the
    # recovered dump after every step.  A cut before the mount's first
    # write leaves an empty disk.
    reference = CrashDisk(MemoryDisk())
    boundaries = [_Boundary("empty disk", 0, dump_database(Database()))]

    def snapshot(step: str, manager: DurableDatabase) -> None:
        recovered = _mount(reference.survivor(), config, master_key)
        dump = dump_database(recovered.database)
        live_state = _logical_state(manager.database, include_indexes)
        recovered_state = _logical_state(recovered.database, include_indexes)
        if live_state != recovered_state:
            result.violations.append(
                f"{label}: recovery after step {step!r} lost or "
                f"changed committed content"
            )
        boundaries.append(_Boundary(step, reference.op_count, dump))

    manager = _mount(reference, config, master_key)
    snapshot("mounted", manager)
    _run_workload(manager, rows, on_step=lambda step: snapshot(step, manager))
    op_log = list(reference.op_log)
    result.boundaries = len(op_log)

    def replay(disk: VirtualDisk) -> None:
        _run_workload(_mount(disk, config, master_key), rows)

    def recover(survivor: VirtualDisk, op_index: int, mode: str) -> bytes:
        recovered = _mount(survivor, config, master_key)
        if recovered.recovery.resilient is not None:
            result.resilient_fallbacks += 1
        if recovered.recovery.truncated_reason is not None:
            result.wal_truncations += 1
        return dump_database(recovered.database)

    _sweep_boundaries(result, boundaries, op_log, 0, limit, modes, replay, recover)
    _audit_neutrality_check(result, replay)
    _flaky_retry_check(result, replay)
    return result


def _flaky_retry_check(
    result: ConfigCrashResult, replay: Callable[[VirtualDisk], None]
) -> None:
    label = result.config
    reference = _final_state(replay)
    inner = MemoryDisk()
    flaky = FlakyDisk(
        inner, DeterministicRandom(b"crash-flaky-disk").fork(label), fail_rate=0.25
    )
    policy = RetryPolicy(
        deadline=60.0, rng=DeterministicRandom(b"crash-retry-policy")
    )
    replay(RetryingDisk(flaky, policy))
    result.flaky_failures_retried = flaky.failures_injected
    if flaky.failures_injected == 0:
        result.violations.append(
            f"{label}: flaky backend injected no failures — check is vacuous"
        )
    if inner.durable_state() != reference:
        result.violations.append(
            f"{label}: retried transient failures changed the final bytes"
        )


def run_crash_campaign(
    rows: int = 5,
    limit: int | None = None,
    configs: list[tuple[str, EncryptionConfig]] | None = None,
    master_key: bytes = _CRASH_MASTER_KEY,
    modes: tuple[str, ...] = CRASH_MODES,
    phases: tuple[str, ...] = CAMPAIGN_PHASES,
) -> CrashCampaignResult:
    """Sweep every (or ``limit`` evenly-spaced) write boundaries of the
    workload under every crash mode, for every configuration.

    ``phases`` selects what gets power-cut: the journaled mutation
    workload ("mutation"), the sharded key-rotation protocol
    ("rotation"), or — the default — both."""
    for mode in modes:
        if mode not in CRASH_MODES:
            raise ValueError(f"unknown crash mode {mode!r}")
    for phase in phases:
        if phase not in CAMPAIGN_PHASES:
            raise ValueError(f"unknown campaign phase {phase!r}")
    if not phases:
        raise ValueError("at least one campaign phase is required")
    configs = configs if configs is not None else default_campaign_configs()
    campaign = CrashCampaignResult(
        rows=rows, limit=limit, modes=tuple(modes), phases=tuple(phases)
    )
    if "mutation" in phases:
        for label, config in configs:
            campaign.per_config.append(
                _sweep_config(label, config, master_key, rows, limit, modes)
            )
    if "rotation" in phases:
        # Imported lazily: the rotation campaign builds on this module.
        from repro.sharding.campaign import run_rotation_campaign

        campaign.rotation = run_rotation_campaign(
            rows=rows, limit=limit, configs=configs, modes=tuple(modes)
        )
    return campaign
