"""Command-line driver: ``python -m repro <command>``.

Commands:

* ``demo``     — run the quickstart scenario end to end.
* ``attacks``  — execute every Sect. 3 attack against the broken and
  fixed configurations and print the outcome table.
* ``overhead`` — print the Sect. 4 storage / invocation tables.
* ``collisions [N]`` — rerun the paper's µ collision experiment with N
  trial addresses (default 1024).
* ``faultcampaign [--seeds N]`` — sweep N seeded storage faults
  (default 25) across every scheme configuration and print the
  detection matrix; exits non-zero if the matrix contradicts the
  paper's claims or the resilient loader ever raises.
* ``bench [--quick] [--scenarios a,b,...] [--out PATH] [--force]`` —
  run the benchmark harness over every scheme configuration, write a
  ``BENCH_<n>.json`` artifact (auto-numbered unless ``--out`` names a
  path; an existing file is never overwritten unless ``--force``), and
  exit non-zero if any measured count diverges from the
  paper's Sect. 4 cost model.  With ``--baseline BENCH_<n>.json``
  additionally compare per-scenario wall time and cipher counts
  against that report (``--threshold F`` sets the fractional wall-time
  tolerance, default 0.25; ``--delta-out PATH`` writes the comparison
  document) and exit non-zero on regression.
* ``backendparity [--out PATH]`` — cross-backend ciphertext-equivalence
  sweep: every registered block-cipher backend (pure reference,
  optimized T-table, any plugin) must emit byte-identical raw blocks,
  byte-identical database images for all six campaign configurations,
  and the batched ``insert_many`` path must match the sequential loop.
  Prints the SHA-256 parity matrix, optionally writes it as JSON, and
  exits non-zero on any divergence.
* ``crashcampaign [--rows N] [--limit N] [--configs slug,...]
  [--modes m,...] [--phases p,...]`` — power-cut a journaled database
  at every write boundary of a seeded workload (or N evenly-spaced
  boundaries with ``--limit``) under each crash mode (default
  ``cut,torn,drop``) and assert recovery always lands on exactly the
  pre- or post-operation state; also checks audit-hook byte-neutrality
  and flaky-backend retry equivalence.  ``--phases`` selects the
  mutation sweep, the sharded key-rotation sweep (every rotation
  protocol write boundary; shards must recover to exactly the old or
  new key epoch), or both (the default).  Exits non-zero on any
  violation.
* ``chaoscampaign [--steps N] [--seed N] [--shards N] [--replicas N]
  [--no-flaky] [--configs slug,...]`` — the unified resilience
  campaign: per configuration, drive one sharded keyspace on an N-way
  mirrored disk (each replica behind a flaky/retrying wrapper stack
  unless ``--no-flaky``) through a seeded schedule interleaving
  inserts, checkpoints, key rotations, whole-host crashes with
  remount, single-replica corruptions, anti-entropy scrubs, and full
  lockstep rollbacks.  Asserts no acknowledged commit is ever lost,
  every rollback raises ``StaleImageError``, every single-replica
  corruption is repaired, and the replicas converge byte-for-byte.
  Exits non-zero on any violation.
* ``scrub --replica PATH --replica PATH [--replica PATH ...]
  [--old-key HEX | --old-seed TEXT]... [--config slug] [--shards N]
  [--no-repair] [--demo] [--inject-fault BLOB]`` — one anti-entropy
  pass over a sharded keyspace mirrored across the replica
  directories: verify every journal, checkpoint, staged rotation
  checkpoint, and the cross-shard manifest MAC-by-MAC on every
  replica, elect the freshest authentic copy per blob, and rewrite
  divergent or corrupt replicas from it (``--no-repair`` reports
  only).  ``--demo`` seeds a small demo keyspace when the replicas
  are empty; ``--inject-fault BLOB`` corrupts the named blob on every
  replica first (an unrepairable fault — the negative control).
  Exits 1 if any blob has no authentic copy anywhere.
* ``rotate --dir PATH (--new-key HEX | --new-seed TEXT)
  [--old-key HEX | --old-seed TEXT]... [--shards N] [--config slug]
  [--shard ID]`` — online master-key rotation of a sharded keyspace
  stored under ``--dir``.  The old key chain is given oldest-first via
  repeatable ``--old-key``/``--old-seed`` flags (default: the demo
  seed ``repro-demo-master``); a fresh directory is created, seeded
  with a small demo dataset, and then rotated.  ``--shard`` rotates a
  single shard; omitting the new key *resumes* an interrupted rotation
  (the supplied chain must already hold the target epoch — lagging
  shards are brought up to its head).  Exits 2 on usage errors, 1 if
  any shard fails post-rotation verification (wrong epoch, degraded
  mount, manifest failure, or lost rows).
* ``audit <log.jsonl> [--metrics-jsonl PATH] [--metrics-prom PATH]`` —
  replay a security audit log through the streaming leakage monitor
  and print the six probe verdicts; optionally export the ``leak.*``
  metric snapshot as JSONL or Prometheus text.
* ``audit --live [--configs slug,...] [--log-dir DIR]`` — run the
  seeded leakage workload with the audit log attached for each named
  configuration (default: all six; slugs: plain, xor, append,
  dbsec2005, aead-eax, aead-ocb), cross-validate the streaming
  verdicts against the offline ``analysis.leakage`` matrix and against
  a replay of the captured events, and exit non-zero on any mismatch.
  ``--log-dir`` persists per-configuration event logs and metric
  snapshots.
* ``trace --out PATH [--scenario NAME] [--configs slug,...]`` — run a
  traced query workload (scenarios: point_query, range_query; default
  point_query) for each named configuration and export every span as
  Chrome trace-event JSON (open in Perfetto or chrome://tracing); the
  document header embeds the workload seed, configuration names, git
  describe, and interpreter version.
* ``explain <scenario> [--configs slug,...]`` — EXPLAIN ANALYZE for
  the encrypted database: run the scenario per configuration and print
  each query's per-operator profile (wall time, bytes, measured vs
  Sect.-4-predicted blockcipher invocations); exits non-zero if any
  per-query measured count diverges from the analytic model.
* ``monitor [--scenario NAME] [--configs slug,...] [--quick]
  [--out HEALTH.json] [--baseline BENCH_<n>.json] [--rules FILE.json]
  [--prom PATH] [--jsonl PATH] [--follow] [--inject FAULT]
  [--limit N]`` — run a bench scenario (default ``shard_rotation``,
  default config ``aead-eax``) or the ``rotation_campaign`` sweep
  under the telemetry hub, evaluate the health-rule set (Sect. 4
  drift, WAL replay/fallback, shard degradation, leakage budgets, and
  — with ``--baseline`` — p99 regression; ``--rules`` adds declarative
  rules from JSON) against the labeled time-series, and write a
  schema-validated ``HEALTH.json``.  ``--follow`` prints a live
  per-tick dashboard; ``--prom``/``--jsonl`` export the labeled
  series; ``--inject cipher-miscount`` / ``--inject wal-fallback``
  simulate faults to prove the rules fire.  Exits 1 when any alert
  fires, 2 on usage errors.
* ``forensics <FLIGHT.json> [--timeline]`` — grade a
  recorded flight document: join the typed fault-injection ground
  truth against the detections the stack emitted, print the per-class
  detection scorecard (rate, latency in ticks, false positives) and —
  with ``--timeline`` — the causally ordered incident timeline with
  root-cause attribution.  Exits 1 when any gated fault class was
  missed or any false positive exists.
* ``forensics --chaos [--steps N] [--seed N] [--shards N]
  [--replicas N] [--no-flaky] [--configs slug,...] [--out PATH]
  [--timeline]`` — run the seeded chaos campaign plus the gated
  control faults under the flight recorder, write the flight document
  to ``--out``, and grade it requiring 100 % detection of every gated
  class (tamper, rollback, unrepairable) and zero false alarms.
* ``forensics --healthy [--scenario NAME] [--inject FAULT]
  [--limit N] [--out PATH]`` — the false-alarm control: a monitored
  run with no injected faults must record zero incidents (no alerts,
  no unmatched detections); exits 1 otherwise.
  ``--inject`` passes monitor fault injections through, making a
  non-zero exit the *expected* outcome (CI's negative control).

All commands exit 0 on success, 1 on a finding (divergence, violation,
alert, missed detection), and 2 on a usage error.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.analysis.collision import run_collision_experiment
from repro.analysis.overhead import (
    PAPER_STORAGE_OCTETS,
    measure_blockcipher_invocations,
    measure_storage_overhead,
    paper_invocation_formula,
)
from repro.analysis.report import format_table


class UsageError(Exception):
    """Bad command-line input; ``main`` prints usage and exits 2."""


# -- flag values: each converter takes (text, flag name) -----------------


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def _parse_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"{what} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"{what} must be a finite number, got {text!r}")
    return value


def _text(text: str, what: str) -> str:
    return text


def _comma_list(text: str, what: str) -> list[str]:
    return [item for item in text.split(",") if item]


def _parse_key(value: str, what: str) -> bytes:
    try:
        key = bytes.fromhex(value)
    except ValueError:
        raise UsageError(f"{what} must be a hex string, got {value!r}") from None
    if len(key) < 16:
        raise UsageError(f"{what} must be at least 16 bytes (32 hex digits)")
    return key


def _seed_key(text: str, what: str = "") -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


def _bench_report(path: str, what: str) -> dict:
    from repro.bench import load_report

    try:
        return load_report(path)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _health_rules(path: str, what: str) -> list:
    from repro.observability.health import load_rules

    try:
        specs = json.loads(Path(path).read_text())
        if not isinstance(specs, list):
            raise ValueError("a rules file holds a JSON array of rule objects")
        return load_rules(specs)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load rules from {path}: {exc}") from None


def _injection(text: str, what: str) -> str:
    from repro.observability.monitor import INJECTIONS

    return _choice(text, INJECTIONS, "injection")


# -- the declarative command table and its one parser ---------------------


@dataclass(frozen=True)
class Flag:
    """One flag of a command, or a command's positional argument.

    ``kind`` converts the text value as ``kind(text, name)``; a flag
    without one is a switch.  A ``many`` flag collects every occurrence,
    in order, into one list shared by all flags with the same ``dest``.
    """

    name: str
    kind: Callable[[str, str], Any] | None = None
    default: Any = None
    minimum: float | None = None
    many: bool = False
    dest: str = ""

    @property
    def key(self) -> str:
        """The handler keyword this flag fills."""
        return self.dest or self.name.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Command:
    """A handler, its flags, and its optional positional argument."""

    run: Callable[..., int]
    flags: tuple[Flag, ...] = ()
    arg: Flag | None = None
    #: The usage error for a second positional argument.
    too_many: str = ""


def _convert(flag: Flag, text: str) -> Any:
    value = flag.kind(text, flag.name)
    if flag.minimum is not None and value < flag.minimum:
        bound = "non-negative" if flag.minimum == 0 else f"at least {flag.minimum}"
        raise UsageError(f"{flag.name} must be {bound}")
    return value


def _parse(name: str, command: Command, argv: list[str]) -> dict[str, Any]:
    """Handler keywords from ``argv``.  A flag takes its value as
    ``--flag value`` or ``--flag=value``; an argument not starting with
    ``--`` is the command's positional argument."""
    flags = {flag.name: flag for flag in command.flags}
    declared = command.flags + ((command.arg,) if command.arg else ())
    opts: dict[str, Any] = {
        flag.key: [] if flag.many else flag.default if flag.kind else False
        for flag in declared
    }
    positional_seen = False
    args = iter(argv)
    for arg in args:
        if command.arg is not None and not arg.startswith("--"):
            if positional_seen:
                raise UsageError(command.too_many)
            positional_seen = True
            opts[command.arg.key] = _convert(command.arg, arg)
            continue
        flag_name, equals, value = arg.partition("=")
        flag = flags.get(flag_name)
        if flag is None or (flag.kind is None and equals):
            raise UsageError(f"unknown {name} argument {arg!r}")
        if flag.kind is None:
            opts[flag.key] = True
            continue
        if not equals:
            value = next(args, None)
            if value is None:
                raise UsageError(f"{flag.name} requires a value")
        if flag.many:
            opts[flag.key].append(_convert(flag, value))
        else:
            opts[flag.key] = _convert(flag, value)
    return opts


def _resolve_configs(slugs: Sequence[str] | None) -> list[tuple[str, Any]]:
    """``(label, EncryptionConfig)`` pairs for configuration slugs in the
    given order; every configuration when ``slugs`` is None."""
    from repro.observability.leakmon import CONFIG_SLUGS
    from repro.robustness.campaign import default_campaign_configs

    if slugs is None:
        slugs = list(CONFIG_SLUGS)
    unknown = [slug for slug in slugs if slug not in CONFIG_SLUGS]
    if unknown:
        raise UsageError(
            f"unknown configuration slug(s) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(CONFIG_SLUGS)}"
        )
    if not slugs:
        raise UsageError(
            f"no configurations selected; available: {', '.join(CONFIG_SLUGS)}"
        )
    by_label = dict(default_campaign_configs())
    return [(CONFIG_SLUGS[slug], by_label[CONFIG_SLUGS[slug]]) for slug in slugs]


def _flagged(tag: str, findings: Sequence[str]) -> bool:
    """Print each finding to stderr as ``TAG: finding`` after a blank
    line on stdout; True when there was any."""
    if findings:
        print()
        for finding in findings:
            print(f"{tag}: {finding}", file=sys.stderr)
    return bool(findings)


def _choice(value: str, available: Sequence[str], what: str) -> str:
    if value not in available:
        raise UsageError(
            f"unknown {what} {value!r}; available: {', '.join(available)}"
        )
    return value


def _choices(
    values: list[str] | None, available: tuple[str, ...], what: str
) -> tuple[str, ...]:
    """``values`` checked against ``available``; all of them when None."""
    if values is None:
        return available
    if not values or any(value not in available for value in values):
        raise UsageError(
            f"unknown or empty {what}(s); available: {', '.join(available)}"
        )
    return tuple(values)


# -- handlers ---------------------------------------------------------------


def _demo() -> int:
    from repro import EncryptedDatabase, EncryptionConfig
    from repro.engine import Column, ColumnType, PointQuery, TableSchema

    db = EncryptedDatabase(
        b"demo-master-key-0123456789abcdef", EncryptionConfig.paper_fixed("eax")
    )
    db.create_table(TableSchema("notes", [Column("text", ColumnType.TEXT)]))
    row = db.insert("notes", ["the fix works"])
    db.create_index("notes_text", "notes", "text")
    result = PointQuery("notes", "text", "the fix works").execute(db)
    stored = db.storage_view().cell("notes", row, 0)
    print("inserted, indexed, queried:", result.row_ids())
    print("stored bytes:", stored.hex()[:64], "...")
    print("plaintext visible in storage:", b"the fix works" in stored)
    return 0


def _attacks() -> int:
    from repro.attacks import (
        evaluate_append_forgery,
        evaluate_index_linkage,
        evaluate_mac_interaction,
        evaluate_pattern_matching,
    )
    from repro.core.encrypted_db import EncryptionConfig
    from repro.workloads.datasets import build_documents_db

    rows, groups = 16, 4
    pairs = {
        (i, j) for i in range(rows) for j in range(i + 1, rows)
        if i % groups == j % groups
    }
    table = []
    for label, config in [
        ("broken ([3]+[12], zero-IV)", EncryptionConfig(
            cell_scheme="append", index_scheme="dbsec2005")),
        ("fixed (AEAD/EAX)", EncryptionConfig.paper_fixed("eax")),
    ]:
        db = build_documents_db(config, rows=rows, groups=groups)
        storage = db.storage_view()
        index = db.index("documents_by_body").structure
        truth = {}
        for entry in index.raw_rows():
            if entry.is_leaf and not entry.deleted:
                _, table_row = index.codec.decode(
                    entry.payload, entry.refs(index.index_table_id)
                )
                truth[entry.row_id] = table_row
        outcomes = [
            evaluate_pattern_matching(storage, "documents", 1, pairs, label),
            evaluate_append_forgery(db, storage, "documents", 1, "body", 64, label),
            evaluate_index_linkage(
                storage, "documents_by_body", "documents", 1, truth, label
            ),
        ]
        if config.index_scheme == "dbsec2005":
            outcomes.append(evaluate_mac_interaction(index, 64, label))
        for outcome in outcomes:
            table.append([label, outcome.attack, outcome.succeeded])
    print(format_table(["configuration", "attack", "succeeded"], table))
    return 0


def _overhead() -> int:
    storage_rows = []
    for scheme in ("eax", "ocb", "ccfb", "gcm"):
        overhead = measure_storage_overhead(scheme, b"P" * 48)
        storage_rows.append([
            scheme, overhead.total_octets,
            PAPER_STORAGE_OCTETS.get(scheme, "-"),
        ])
    print(format_table(
        ["scheme", "measured octets/entry", "paper"], storage_rows,
        caption="storage overhead (Sect. 4)",
    ))
    print()
    invocation_rows = []
    for n in (1, 4, 16):
        eax = measure_blockcipher_invocations("eax", n, 1)
        ocb = measure_blockcipher_invocations("ocb", n, 1)
        invocation_rows.append([
            n, eax.total_calls, paper_invocation_formula("eax", n, 1),
            ocb.total_calls, paper_invocation_formula("ocb", n, 1),
        ])
    print(format_table(
        ["n", "EAX", "2n+m+1", "OCB", "n+m+5"], invocation_rows,
        caption="blockcipher invocations, m=1 (Sect. 4)",
    ))
    return 0


def _collisions(trials: int) -> int:
    experiment = run_collision_experiment(trials)
    print(experiment)
    if trials == 1024:
        print("paper's run on its own address set found 6")
    return 0


def _faultcampaign(seeds: int) -> int:
    from repro.robustness import run_campaign

    result = run_campaign(seeds=seeds)
    print(result.format_matrix())
    recovered = sum(r.rows_recovered for r in result.records)
    quarantined = sum(r.rows_quarantined for r in result.records)
    print()
    print(
        f"resilient loader: {len(result.records)} faulted images, "
        f"{len(result.resilient_failures)} crashes, "
        f"{recovered} rows recovered, {quarantined} rows quarantined"
    )
    if _flagged("VIOLATION", result.check_paper_expectations()):
        return 1
    print("matrix consistent with the paper's claims "
          "(broken schemes corrupt silently, AEAD never does)")
    return 0


def _crashcampaign(
    rows: int,
    limit: int | None,
    configs: list[str] | None,
    modes: list[str] | None,
    phases: list[str] | None,
) -> int:
    from repro.durability import run_crash_campaign
    from repro.durability.crashcampaign import CAMPAIGN_PHASES, CRASH_MODES

    phases = _choices(phases, CAMPAIGN_PHASES, "campaign phase")
    config_items = _resolve_configs(configs)
    modes = _choices(modes, CRASH_MODES, "crash mode")

    result = run_crash_campaign(
        rows=rows, limit=limit, configs=config_items, modes=modes, phases=phases
    )
    print(result.format_matrix())
    if _flagged("VIOLATION", result.violations):
        return 1
    messages = []
    if result.per_config:
        messages.append(
            "every crash recovered to exactly the pre- or post-operation "
            "state; audit hooks and retried transient failures are "
            "byte-neutral"
        )
    if result.rotation is not None:
        messages.append(
            "every mid-rotation crash recovered each shard to exactly the "
            "old or the new key epoch with the manifest verifying"
        )
    print("; ".join(messages))
    return 0


def _chaoscampaign(
    steps: int,
    seed: int,
    shards: int,
    replicas: int,
    no_flaky: bool,
    configs: list[str] | None,
) -> int:
    from repro.resilience.chaos import run_chaos_campaign

    result = run_chaos_campaign(
        steps=steps,
        seed=seed,
        shard_count=shards,
        replicas=replicas,
        flaky=not no_flaky,
        configs=_resolve_configs(configs),
    )
    print(result.format_matrix())
    if _flagged("VIOLATION", result.violations):
        return 1
    rollbacks = sum(r.rollbacks_injected for r in result.per_config)
    corruptions = sum(r.corruptions for r in result.per_config)
    print(
        f"no acknowledged commit lost, all {rollbacks} rollback(s) "
        f"detected, all {corruptions} single-replica corruption(s) "
        f"repaired, replicas converged"
    )
    return 0


#: The key chain ``scrub`` and ``rotate`` assume when no old key is given.
_DEMO_SEED = "repro-demo-master"


def _seed_demo_keyspace(keyspace) -> None:
    """The six demo rows ``scrub --demo`` and a fresh ``rotate`` start from."""
    from repro.engine.schema import Column, ColumnType, TableSchema

    keyspace.create_table(TableSchema("people", [
        Column("id", ColumnType.INT),
        Column("name", ColumnType.TEXT),
        Column("city", ColumnType.TEXT, sensitive=False),
    ]))
    for i in range(6):
        keyspace.insert("people", [i, f"name-{i:03d}", f"city-{i % 3}"])


def _scrub(
    replicas: list[str],
    old_masters: list[bytes],
    no_repair: bool,
    demo: bool,
    inject: str | None,
    shards: int,
    slug: str,
) -> int:
    from repro.core.keys import KeyChain
    from repro.durability.vdisk import FileDisk
    from repro.errors import DiskError
    from repro.resilience import MirroredDisk, scrub_keyspace
    from repro.sharding import ShardedKeyspace

    if len(replicas) < 2:
        raise UsageError("scrub requires at least two --replica PATH flags")
    ((_, config),) = _resolve_configs([slug])

    chain = KeyChain(old_masters or [_seed_key(_DEMO_SEED)])
    disks = [FileDisk(path) for path in replicas]
    mirror = MirroredDisk(disks)
    if demo and not mirror.names():
        keyspace = ShardedKeyspace.open(
            mirror, chain, config, shard_count=shards
        )
        _seed_demo_keyspace(keyspace)
        keyspace.checkpoint()
        print(
            f"created a fresh {shards}-shard demo keyspace across "
            f"{len(replicas)} replicas"
        )
    if inject is not None:
        # Corrupt the named blob on *every* replica: an unrepairable
        # fault the scrub must report (and exit non-zero on) — the CI
        # smoke test's negative control.
        flipped = 0
        for disk in disks:
            try:
                data = bytearray(disk.read(inject))
            except DiskError:
                continue
            data[0] ^= 0xFF
            disk.write(inject, bytes(data))
            disk.sync(inject)
            flipped += 1
        if flipped == 0:
            raise UsageError(f"--inject-fault: no replica holds {inject!r}")
        print(f"injected fault into {inject!r} on {flipped} replica(s)")

    report = scrub_keyspace(mirror, chain, repair=not no_repair)
    print(report.format())
    unrepairable = [
        f"{name} has no authentic copy on any replica"
        for name in report.unrepaired
    ]
    return 1 if _flagged("UNREPAIRABLE", unrepairable) else 0


def _rotate(
    directory: str | None,
    old_masters: list[bytes],
    new_masters: list[bytes],
    shards: int,
    slug: str,
    shard_id: str | None,
) -> int:
    from repro.core.keys import KeyChain
    from repro.durability.vdisk import FileDisk
    from repro.sharding import ShardedKeyspace

    if len(new_masters) > 1:
        raise UsageError("rotate takes exactly one new key")
    if directory is None:
        raise UsageError("rotate requires --dir PATH")
    new_master = new_masters[0] if new_masters else None
    if new_master is None and len(old_masters) < 2:
        # Without a new key the only meaningful run is a *resume*: the
        # supplied chain already holds the target epoch and lagging
        # shards are brought up to its head.
        raise UsageError("rotate requires --new-key HEX or --new-seed TEXT")
    ((_, config),) = _resolve_configs([slug])
    old_masters = old_masters or [_seed_key(_DEMO_SEED)]
    if new_master is not None and new_master in old_masters:
        raise UsageError("the new key must differ from every old chain key")

    chain = KeyChain(old_masters)
    keyspace = ShardedKeyspace.open(
        FileDisk(directory), chain, config, shard_count=shards
    )
    for issue in keyspace.recovery.issues:
        print(f"note: {issue}", file=sys.stderr)
    if keyspace.recovery.fresh:
        _seed_demo_keyspace(keyspace)
        keyspace.create_index("people_by_id", "people", "id", kind="btree")
        keyspace.checkpoint()
        print(f"created a fresh {shards}-shard keyspace in {directory} "
              f"(6 demo rows)")
    if shard_id is not None and all(
        shard.shard_id != shard_id for shard in keyspace.shards
    ):
        raise UsageError(
            f"no shard {shard_id!r}; keyspace holds "
            f"{', '.join(shard.shard_id for shard in keyspace.shards)}"
        )
    before_counts = {
        name: keyspace.count(name)
        for name in keyspace.shards[0].manager.database.table_names
    }

    report = keyspace.rotate(new_master, shard_id=shard_id)
    print(format_table(
        ["shard", "from epoch", "to epoch", "cells", "index entries"],
        [
            [o.shard_id, o.from_epoch, o.to_epoch,
             o.cells_reencrypted, o.index_entries_reencrypted]
            for o in report.outcomes
        ],
        caption=f"rotation to key epoch {report.to_epoch}",
    ))
    for skipped in report.skipped:
        print(f"skipped {skipped} (already at epoch {report.to_epoch} "
              f"or degraded)")

    # Post-rotation verification: remount from disk under the extended
    # chain and require every rotated shard at the target epoch, clean.
    check = ShardedKeyspace.open(FileDisk(directory), chain, config)
    failures = []
    if check.recovery.manifest != "ok":
        failures.append(f"manifest does not verify: {check.recovery.manifest}")
    rotated = {outcome.shard_id for outcome in report.outcomes}
    for shard in check.shards:
        if shard.shard_id in rotated and shard.epoch != report.to_epoch:
            failures.append(
                f"{shard.shard_id} remounted at epoch {shard.epoch}, "
                f"expected {report.to_epoch}"
            )
        if shard.shard_id in rotated and shard.degraded:
            failures.append(f"{shard.shard_id} remounted degraded")
    for name, expected in before_counts.items():
        found = check.count(name)
        if found != expected:
            failures.append(
                f"table {name!r} holds {found} rows after rotation, "
                f"had {expected}"
            )
    if _flagged("VERIFICATION FAILED", failures):
        return 1
    print(f"verified: {len(rotated)} shard(s) at epoch {report.to_epoch}, "
          f"manifest ok, row counts preserved")
    return 0


def _bench(
    quick: bool,
    force: bool,
    scenarios: list[str] | None,
    out: str | None,
    baseline: dict | None,
    threshold: float | None,
    delta_out: str | None,
) -> int:
    from repro.bench import (
        DEFAULT_WALL_THRESHOLD,
        compare_reports,
        divergences,
        next_bench_path,
        run_bench,
        summarize,
        summarize_comparison,
        write_report,
    )

    try:
        report = run_bench(scenarios, quick=quick)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    try:
        path = write_report(
            report, out if out is not None else next_bench_path(), overwrite=force
        )
    except FileExistsError as exc:
        raise UsageError(str(exc)) from None
    print(summarize(report))
    print(f"report written to {path}")
    failed = False
    if not report["ok"]:
        _flagged("DIVERGENCE", divergences(report))
        failed = True
    if baseline is not None:
        if threshold is None:
            threshold = DEFAULT_WALL_THRESHOLD
        delta = compare_reports(baseline, report, wall_threshold=threshold)
        print()
        print(summarize_comparison(delta))
        if delta_out is not None:
            Path(delta_out).write_text(
                json.dumps(delta, indent=2, sort_keys=True) + "\n"
            )
            print(f"delta report written to {delta_out}")
        failed |= _flagged("REGRESSION", delta["regressions"])
    return 1 if failed else 0


def _backendparity(out: str | None) -> int:
    """Cross-backend equivalence sweep: every registered cipher backend
    must produce byte-identical output at three layers — raw blocks,
    whole database images, and batched-vs-sequential engine paths."""
    from repro.engine.storage import dump_database
    from repro.primitives.backends import available_backends, get_backend
    from repro.robustness.campaign import build_campaign_db, default_campaign_configs

    backends = available_backends()
    reference = backends[0]
    failures: list[str] = []
    document: dict = {"backends": list(backends), "reference": reference}

    # Layer 1: raw block equivalence per algorithm, both directions,
    # single-block and batch paths, deterministic pseudorandom inputs.
    # Batch widths straddle the optimized AES kernel's 256-block chunk
    # edge and include a multi-chunk batch with a remainder.
    widths = (1, 2, 255, 256, 257, 600)
    def material(tag: str, length: int) -> bytes:
        stream = b""
        counter = 0
        while len(stream) < length:
            stream += hashlib.sha256(b"parity/%s/%d" % (tag.encode(), counter)).digest()
            counter += 1
        return stream[:length]

    algorithms = [
        ("aes-128", 16),
        ("aes-192", 24),
        ("aes-256", 32),
        ("des", 8),
        ("3des", 24),
    ]
    primitive_rows: list[dict] = []
    for algorithm, key_size in algorithms:
        key = material("key/" + algorithm, key_size)
        ciphers = {name: get_backend(name).create(algorithm, key) for name in backends}
        block_size = ciphers[reference].block_size
        blocks = [
            material(f"block/{algorithm}/{i}", block_size)
            for i in range(max(widths))
        ]
        expected = [ciphers[reference].encrypt_block(block) for block in blocks]
        row = {"algorithm": algorithm, "ok": True}
        for name, cipher in ciphers.items():
            diverged = [cipher.encrypt_block(block) for block in blocks] != expected
            for width in widths:
                batched = cipher.encrypt_blocks(blocks[:width])
                recovered = cipher.decrypt_blocks(batched)
                diverged |= batched != expected[:width] or recovered != blocks[:width]
            if diverged:
                row["ok"] = False
                failures.append(f"primitive divergence: {algorithm} under {name!r}")
        primitive_rows.append(row)
    document["primitives"] = primitive_rows

    # Layer 2 + 3: whole-image SHA-256 per campaign config per backend,
    # plus the batched insert path against the sequential loop.
    rows = 8
    image_rows: list[dict] = []
    for label, config in default_campaign_configs():
        hashes: dict[str, str] = {}
        for name in backends:
            db = build_campaign_db(config.with_(backend=name), rows)
            hashes[name] = hashlib.sha256(dump_database(db)).hexdigest()
        batch_db = build_campaign_db(
            config.with_(backend=reference), rows, batched=True
        )
        batch_hash = hashlib.sha256(dump_database(batch_db)).hexdigest()
        ok = len(set(hashes.values())) == 1 and batch_hash == hashes[reference]
        if not ok:
            failures.append(f"image divergence: {label!r}: {hashes} batch={batch_hash}")
        image_rows.append(
            {"config": label, "ok": ok, "hashes": hashes, "batched": batch_hash}
        )
    document["images"] = image_rows
    document["ok"] = not failures

    print(
        format_table(
            ["config", "parity"]
            + [f"sha256 ({name})" for name in backends]
            + ["sha256 (batched)"],
            [
                [row["config"], "ok" if row["ok"] else "DIVERGED"]
                + [row["hashes"][name][:16] for name in backends]
                + [row["batched"][:16]]
                for row in image_rows
            ],
            caption=f"cross-backend image parity ({rows} rows per config)",
        )
    )
    print(
        f"primitive sweep: "
        f"{sum(1 for r in primitive_rows if r['ok'])}/{len(primitive_rows)} "
        f"algorithms byte-identical across {len(backends)} backends"
    )
    if out is not None:
        Path(out).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"parity report written to {out}")
    return 1 if _flagged("DIVERGENCE", failures) else 0


def _audit_replay(
    log_path: str, metrics_jsonl: str | None, metrics_prom: str | None
) -> int:
    from repro.observability import AuditError, LeakMonitor, read_events, write_snapshot
    from repro.observability.leakmon import PROBES

    try:
        events = read_events(log_path)
    except AuditError as exc:
        raise UsageError(str(exc)) from None
    monitor = LeakMonitor()
    monitor.feed_all(events)
    verdicts = monitor.verdicts()
    print(f"replayed {len(events)} events from {log_path}")
    print(
        format_table(
            ["probe", "leaked"],
            [[probe, verdicts[probe]] for probe in PROBES],
            caption="streaming leakage verdicts",
        )
    )
    counters = monitor.registry.snapshot()["counters"]
    for name in sorted(counters):
        if name.startswith("leak.") and name != "leak.events":
            print(f"  {name} = {counters[name]}")
    written = write_snapshot(
        monitor.registry.snapshot(),
        jsonl_path=metrics_jsonl,
        prometheus_path=metrics_prom,
    )
    for path in written:
        print(f"metrics written to {path}")
    return 0


def _audit_live(slugs: list[str] | None, log_dir: str | None) -> int:
    from repro.observability import LeakMonitor, write_snapshot
    from repro.observability.leakmon import CONFIG_SLUGS, PROBES, run_live_profile

    slugs = list(CONFIG_SLUGS) if slugs is None else slugs
    config_items = _resolve_configs(slugs)
    directory = None
    if log_dir is not None:
        directory = Path(log_dir)
        directory.mkdir(parents=True, exist_ok=True)

    rows = []
    mismatches = []
    for slug, (label, config) in zip(slugs, config_items):
        sink = directory / f"audit-{slug}.jsonl" if directory else None
        monitor, events, offline = run_live_profile(config, label, sink_path=sink)
        streaming = monitor.verdicts()
        replayed = LeakMonitor()
        replayed.feed_all(events)
        replay_verdicts = replayed.verdicts()
        agree = streaming == offline == replay_verdicts
        rows.append(
            [label, len(events)]
            + [streaming[probe] for probe in PROBES]
            + [agree]
        )
        if not agree:
            for probe in PROBES:
                if not (
                    streaming[probe] == offline[probe] == replay_verdicts[probe]
                ):
                    mismatches.append(
                        f"{label}/{probe}: offline={offline[probe]} "
                        f"streaming={streaming[probe]} replay={replay_verdicts[probe]}"
                    )
        if directory is not None:
            write_snapshot(
                monitor.registry.snapshot(),
                jsonl_path=directory / f"metrics-{slug}.jsonl",
                prometheus_path=directory / f"metrics-{slug}.prom",
            )
    print(
        format_table(
            ["configuration", "events", *PROBES, "matches offline"],
            rows,
            caption="streaming leakage monitor vs offline analysis.leakage",
        )
    )
    if directory is not None:
        print(f"event logs and metric snapshots written to {directory}/")
    if _flagged("MISMATCH", mismatches):
        return 1
    print("streaming verdicts agree with the offline matrix "
          "(live and replayed) for every configuration")
    return 0


def _audit(
    live: bool,
    configs: list[str] | None,
    log_dir: str | None,
    metrics_jsonl: str | None,
    metrics_prom: str | None,
    log_path: str | None,
) -> int:
    if live:
        if log_path is not None:
            raise UsageError("--live runs a workload; it does not take a log path")
        return _audit_live(configs, log_dir)
    if log_path is None:
        raise UsageError("audit requires a log path (or --live)")
    if configs is not None or log_dir is not None:
        raise UsageError("--configs/--log-dir only apply to audit --live")
    return _audit_replay(log_path, metrics_jsonl, metrics_prom)


def _trace(scenario: str, configs: list[str] | None, out: str | None) -> int:
    from repro.bench.explain import (
        EXPLAIN_SCENARIOS,
        explain_metadata,
        trace_scenario,
    )
    from repro.observability.traceexport import write_chrome_trace

    if out is None:
        raise UsageError("trace requires --out PATH")
    _choice(scenario, EXPLAIN_SCENARIOS, "trace scenario")
    config_items = _resolve_configs(configs)

    spans = []
    for label, config in config_items:
        result = trace_scenario(scenario, label, config)
        if result.skipped is not None:
            print(f"skipped {label}: {result.skipped}")
            continue
        spans.extend(result.spans)
    metadata = explain_metadata(scenario, [label for label, _ in config_items])
    path = write_chrome_trace(out, spans, metadata)
    print(
        f"{len(spans)} spans from scenario {scenario!r} written to {path} "
        "(open in Perfetto or chrome://tracing)"
    )
    return 0


def _explain(configs: list[str] | None, scenario: str | None) -> int:
    from repro.bench.explain import (
        EXPLAIN_SCENARIOS,
        render_explain_report,
        trace_scenario,
    )

    if scenario is None:
        raise UsageError(
            f"explain requires a scenario; available: {', '.join(EXPLAIN_SCENARIOS)}"
        )
    _choice(scenario, EXPLAIN_SCENARIOS, "explain scenario")
    config_items = _resolve_configs(configs)

    results = [
        trace_scenario(scenario, label, config) for label, config in config_items
    ]
    print(render_explain_report(results), end="")
    mismatches = []
    for result in results:
        for profile in result.profiles:
            check = profile.formula_check()
            if check["applicable"] and not check["ok"]:
                mismatches.append(
                    f"{result.config}/{profile.name} (trace {profile.trace_id}): "
                    f"measured {check['measured_cipher_calls']} != "
                    f"predicted {check['predicted_cipher_calls']}"
                )
    return 1 if _flagged("DIVERGENCE", mismatches) else 0


def _monitor(
    scenario: str,
    configs: Sequence[str],
    quick: bool,
    follow: bool,
    out: str | None,
    baseline: dict | None,
    extra_rules: list | None,
    prom_path: str | None,
    jsonl_path: str | None,
    inject: list[str],
    limit: int | None,
) -> int:
    from repro.observability.export import (
        render_prometheus_samples,
        render_series_jsonl,
        series_dropped_samples,
    )
    from repro.observability.monitor import (
        monitor_scenarios,
        run_monitor,
        validate_health_report,
        write_health,
    )
    from repro.observability.timeseries import HUB

    _choice(scenario, monitor_scenarios(), "scenario")
    config_items = _resolve_configs(configs)

    def dashboard(channel, kind, fields):
        if channel != "telemetry":
            return
        # Pull-sampled series land on this tick; pushed gauges landed
        # between the previous tick and this one — show both.
        tick = fields["hub_tick"]
        fresh = [
            (series.name, series.labels, sample[1])
            for series in HUB.all_series(include_volatile=True)
            for sample in [series.last()]
            if sample is not None and sample[0] + 1 >= tick
        ]
        print(f"tick {tick:>5}  ({len(fresh)} series updated)")
        for name, labels, value in fresh:
            rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            print(f"    {name}{{{rendered}}} = {value:g}")

    doc = run_monitor(
        scenario=scenario,
        config_items=config_items,
        quick=quick,
        baseline=baseline,
        extra_rules=extra_rules,
        inject=inject,
        limit=limit,
        follow=dashboard if follow else None,
    )
    if _flagged("INVALID", validate_health_report(doc)):
        return 1

    if out is not None:
        path = write_health(doc, out)
        print(f"health report written to {path}")
    if prom_path is not None:
        samples = [
            (entry["name"], entry["labels"], entry["samples"][-1][1])
            for entry in doc["series"]
            if entry["samples"]
        ]
        text = render_prometheus_samples(samples)
        # Ring-drop counters ride along so a scrape can alert on any
        # evicted sample, mirroring the bench harness's hard failure.
        text += render_prometheus_samples(
            series_dropped_samples(doc["series"]), type_hint="counter"
        )
        Path(prom_path).write_text(text)
        print(f"prometheus samples written to {prom_path}")
    if jsonl_path is not None:
        Path(jsonl_path).write_text(render_series_jsonl(doc["series"]))
        print(f"series JSONL written to {jsonl_path}")

    for entry in doc["configs"]:
        if entry.get("skipped"):
            print(f"skipped {entry['config']}: {entry['skipped']}")
            continue
        print(
            f"{entry['config']}: ops={entry['ops']} "
            f"sect4_drift={entry['sect4_drift']} "
            f"leak_events={entry['leak_events']}"
        )
    print(
        f"monitored {scenario}: {doc['ticks']} tick(s), "
        f"{len(doc['series'])} series, {len(doc['rules'])} rule(s)"
    )
    if doc["alerts"]:
        print()
        for alert in doc["alerts"]:
            print(
                f"ALERT [{alert['severity']}] {alert['rule']}: {alert['message']}",
                file=sys.stderr,
            )
        return 1
    print("health: OK (no alerts fired)")
    return 0


def _forensics(
    chaos: bool,
    healthy: bool,
    timeline: bool,
    steps: int,
    seed: int,
    shards: int,
    replicas: int,
    no_flaky: bool,
    configs: list[str] | None,
    scenario: str,
    inject: list[str],
    limit: int | None,
    out: str | None,
    flight_path: str | None,
) -> int:
    from repro.observability.flightrecorder import GATED_CLASSES
    from repro.observability.forensics import (
        build_timeline,
        load_and_grade,
        render_scorecard,
        render_timeline,
        run_chaos_flight,
        run_healthy_flight,
        scorecard_gate,
    )

    modes = sum([chaos, healthy, flight_path is not None])
    if modes != 1:
        raise UsageError(
            "forensics requires exactly one of: a FLIGHT.json path, "
            "--chaos, or --healthy"
        )

    if healthy:
        from repro.observability.monitor import monitor_scenarios

        _choice(scenario, monitor_scenarios(), "scenario")
        health, doc, incidents = run_healthy_flight(
            scenario=scenario,
            inject=tuple(inject),
            limit=limit,
            out=out,
        )
        print(
            f"healthy run: {scenario} over {health['ticks']} tick(s), "
            f"{len(doc['records'])} flight record(s)"
        )
        if out is not None:
            print(f"flight document written to {out}")
        if timeline:
            print(render_timeline(build_timeline(doc)))
        if _flagged("INCIDENT", incidents):
            return 1
        print("no incidents: zero alerts, zero false positives, "
              "zero open gated injections")
        return 0

    if chaos:
        campaign, doc, scorecard = run_chaos_flight(
            steps=steps,
            seed=seed,
            configs=_resolve_configs(configs),
            shard_count=shards,
            replicas=replicas,
            flaky=not no_flaky,
            out=out,
        )
        print(render_scorecard(scorecard))
        if out is not None:
            print(f"flight document written to {out}")
        if timeline:
            print(render_timeline(build_timeline(doc)))
        problems = campaign.violations
        problems += scorecard_gate(scorecard, require=GATED_CLASSES)
        if _flagged("GATE FAILED", problems):
            return 1
        print(
            "detection gate: every gated class (tamper, rollback, "
            "unrepairable) detected 100%, zero false positives"
        )
        return 0

    try:
        doc, scorecard = load_and_grade(flight_path)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"graded {flight_path}: {len(doc['records'])} record(s), "
          f"reason {doc['reason']!r}")
    print(render_scorecard(scorecard))
    if timeline:
        print(render_timeline(build_timeline(doc)))
    if _flagged("GATE FAILED", scorecard_gate(scorecard)):
        return 1
    print("scorecard gate: OK")
    return 0


_CONFIGS = Flag("--configs", _comma_list)
_OUT = Flag("--out", _text)
_INJECT = Flag("--inject", _injection, many=True)
_LIMIT = Flag("--limit", _parse_int, minimum=1)


def _chaos_flags(steps: int) -> tuple[Flag, ...]:
    """The chaos-schedule flags ``chaoscampaign`` and ``forensics --chaos``
    share; each command keeps its own default step count."""
    return (
        Flag("--steps", _parse_int, steps, minimum=1),
        Flag("--seed", _parse_int, 0),
        Flag("--shards", _parse_int, 2, minimum=1),
        Flag("--replicas", _parse_int, 3, minimum=2),
        Flag("--no-flaky"),
        _CONFIGS,
    )


#: The keyspace flags ``scrub`` and ``rotate`` share.  ``--old-key`` and
#: ``--old-seed`` fill one chain, oldest first, in command-line order.
_KEYSPACE_FLAGS = (
    Flag("--old-key", _parse_key, many=True, dest="old_masters"),
    Flag("--old-seed", _seed_key, many=True, dest="old_masters"),
    Flag("--shards", _parse_int, 2, minimum=1),
    Flag("--config", _text, "aead-eax", dest="slug"),
)

COMMANDS: dict[str, Command] = {
    "demo": Command(_demo),
    "attacks": Command(_attacks),
    "overhead": Command(_overhead),
    "collisions": Command(
        _collisions,
        arg=Flag("collisions trial count", _parse_int, 1024, minimum=1,
                 dest="trials"),
        too_many="collisions takes at most one argument (trial count)",
    ),
    "faultcampaign": Command(
        _faultcampaign, (Flag("--seeds", _parse_int, 25, minimum=1),)
    ),
    "crashcampaign": Command(_crashcampaign, (
        Flag("--rows", _parse_int, 5, minimum=1),
        _LIMIT,
        _CONFIGS,
        Flag("--modes", _comma_list),
        Flag("--phases", _comma_list),
    )),
    "chaoscampaign": Command(_chaoscampaign, _chaos_flags(steps=60)),
    "scrub": Command(_scrub, (
        Flag("--replica", _text, many=True, dest="replicas"),
        *_KEYSPACE_FLAGS,
        Flag("--no-repair"),
        Flag("--demo"),
        Flag("--inject-fault", _text, dest="inject"),
    )),
    "rotate": Command(_rotate, (
        Flag("--dir", _text, dest="directory"),
        *_KEYSPACE_FLAGS,
        Flag("--new-key", _parse_key, many=True, dest="new_masters"),
        Flag("--new-seed", _seed_key, many=True, dest="new_masters"),
        Flag("--shard", _text, dest="shard_id"),
    )),
    "bench": Command(_bench, (
        Flag("--quick"),
        Flag("--force"),
        Flag("--scenarios", _comma_list),
        _OUT,
        Flag("--baseline", _bench_report),
        Flag("--threshold", _parse_float, minimum=0),
        Flag("--delta-out", _text),
    )),
    "backendparity": Command(_backendparity, (_OUT,)),
    "audit": Command(
        _audit,
        (
            Flag("--live"),
            _CONFIGS,
            Flag("--log-dir", _text),
            Flag("--metrics-jsonl", _text),
            Flag("--metrics-prom", _text),
        ),
        arg=Flag("log path", _text, dest="log_path"),
        too_many="audit takes at most one log path",
    ),
    "trace": Command(_trace, (
        Flag("--scenario", _text, "point_query"),
        _CONFIGS,
        _OUT,
    )),
    "explain": Command(
        _explain,
        (_CONFIGS,),
        arg=Flag("scenario", _text),
        too_many="explain takes exactly one scenario",
    ),
    "monitor": Command(_monitor, (
        Flag("--scenario", _text, "shard_rotation"),
        Flag("--configs", _comma_list, ("aead-eax",)),
        Flag("--quick"),
        Flag("--follow"),
        _OUT,
        Flag("--baseline", _bench_report),
        Flag("--rules", _health_rules, dest="extra_rules"),
        Flag("--prom", _text, dest="prom_path"),
        Flag("--jsonl", _text, dest="jsonl_path"),
        _INJECT,
        _LIMIT,
    )),
    "forensics": Command(
        _forensics,
        (
            Flag("--chaos"),
            Flag("--healthy"),
            Flag("--timeline"),
            *_chaos_flags(steps=24),
            Flag("--scenario", _text, "point_query"),
            _INJECT,
            _LIMIT,
            _OUT,
        ),
        arg=Flag("FLIGHT.json path", _text, dest="flight_path"),
        too_many="forensics takes at most one FLIGHT.json path",
    ),
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(__doc__)
        return 2
    name, *rest = argv
    command = COMMANDS.get(name)
    if command is None:
        print(f"unknown command {name!r}\n", file=sys.stderr)
        print(__doc__)
        return 2
    try:
        return command.run(**_parse(name, command, rest))
    except UsageError as exc:
        print(f"error: {exc}\n", file=sys.stderr)
        print(__doc__)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
