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
* ``forensics <FLIGHT.json> [--scorecard] [--timeline]`` — grade a
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
  no typed errors, no unmatched detections); exits 1 otherwise.
  ``--inject`` passes monitor fault injections through, making a
  non-zero exit the *expected* outcome (CI's negative control).

All commands exit 0 on success, 1 on a finding (divergence, violation,
alert, missed detection), and 2 on a usage error.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.analysis.collision import run_collision_experiment
from repro.analysis.overhead import (
    PAPER_STORAGE_OCTETS,
    measure_blockcipher_invocations,
    measure_storage_overhead,
    paper_invocation_formula,
)
from repro.analysis.report import format_table


def _demo(argv: list[str]) -> int:
    if argv:
        raise UsageError(f"demo takes no arguments, got {argv[0]!r}")
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


def _attacks(argv: list[str]) -> int:
    if argv:
        raise UsageError(f"attacks takes no arguments, got {argv[0]!r}")
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


def _overhead(argv: list[str]) -> int:
    if argv:
        raise UsageError(f"overhead takes no arguments, got {argv[0]!r}")
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


class UsageError(Exception):
    """Bad command-line input; the driver prints usage and exits 2."""


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def _faultcampaign(argv: list[str]) -> int:
    from repro.robustness import run_campaign

    seeds = 25
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--seeds":
            if not args:
                raise UsageError("--seeds requires a value")
            seeds = _parse_int(args.pop(0), "--seeds")
        elif arg.startswith("--seeds="):
            seeds = _parse_int(arg.split("=", 1)[1], "--seeds")
        else:
            raise UsageError(f"unknown faultcampaign argument {arg!r}")
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
    violations = result.check_paper_expectations()
    if violations:
        print()
        for violation in violations:
            print(f"VIOLATION: {violation}", file=sys.stderr)
        return 1
    print("matrix consistent with the paper's claims "
          "(broken schemes corrupt silently, AEAD never does)")
    return 0


def _crashcampaign(argv: list[str]) -> int:
    from repro.durability import run_crash_campaign
    from repro.durability.crashcampaign import CAMPAIGN_PHASES, CRASH_MODES
    from repro.observability.leakmon import CONFIG_SLUGS
    from repro.robustness.campaign import default_campaign_configs

    rows = 5
    limit: int | None = None
    config_slugs: list[str] | None = None
    modes: list[str] | None = None
    phases: list[str] | None = None
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--rows" or arg.startswith("--rows="):
            rows = _parse_int(_flag_value(arg, args, "--rows"), "--rows")
        elif arg == "--limit" or arg.startswith("--limit="):
            limit = _parse_int(_flag_value(arg, args, "--limit"), "--limit")
        elif arg == "--configs" or arg.startswith("--configs="):
            value = _flag_value(arg, args, "--configs")
            config_slugs = [s for s in value.split(",") if s]
        elif arg == "--modes" or arg.startswith("--modes="):
            value = _flag_value(arg, args, "--modes")
            modes = [m for m in value.split(",") if m]
        elif arg == "--phases" or arg.startswith("--phases="):
            value = _flag_value(arg, args, "--phases")
            phases = [p for p in value.split(",") if p]
        else:
            raise UsageError(f"unknown crashcampaign argument {arg!r}")
    if rows < 1:
        raise UsageError("--rows must be at least 1")
    if limit is not None and limit < 1:
        raise UsageError("--limit must be at least 1")
    if phases is not None:
        bad = [p for p in phases if p not in CAMPAIGN_PHASES]
        if bad or not phases:
            raise UsageError(
                f"unknown or empty campaign phase(s); "
                f"available: {', '.join(CAMPAIGN_PHASES)}"
            )

    configs = None
    if config_slugs is not None:
        unknown = [slug for slug in config_slugs if slug not in CONFIG_SLUGS]
        if unknown or not config_slugs:
            raise UsageError(
                f"unknown or empty configuration slug(s); "
                f"available: {', '.join(CONFIG_SLUGS)}"
            )
        by_label = dict(default_campaign_configs())
        configs = [
            (CONFIG_SLUGS[slug], by_label[CONFIG_SLUGS[slug]])
            for slug in config_slugs
        ]
    if modes is not None:
        bad = [m for m in modes if m not in CRASH_MODES]
        if bad or not modes:
            raise UsageError(
                f"unknown or empty crash mode(s); "
                f"available: {', '.join(CRASH_MODES)}"
            )

    result = run_crash_campaign(
        rows=rows,
        limit=limit,
        configs=configs,
        modes=tuple(modes) if modes is not None else CRASH_MODES,
        phases=tuple(phases) if phases is not None else CAMPAIGN_PHASES,
    )
    print(result.format_matrix())
    if not result.ok:
        print()
        for violation in result.violations:
            print(f"VIOLATION: {violation}", file=sys.stderr)
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


def _chaoscampaign(argv: list[str]) -> int:
    from repro.observability.leakmon import CONFIG_SLUGS
    from repro.resilience.chaos import run_chaos_campaign
    from repro.robustness.campaign import default_campaign_configs

    steps = 60
    seed = 0
    shards = 2
    replicas = 3
    flaky = True
    config_slugs: list[str] | None = None
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--steps" or arg.startswith("--steps="):
            steps = _parse_int(_flag_value(arg, args, "--steps"), "--steps")
        elif arg == "--seed" or arg.startswith("--seed="):
            seed = _parse_int(_flag_value(arg, args, "--seed"), "--seed")
        elif arg == "--shards" or arg.startswith("--shards="):
            shards = _parse_int(_flag_value(arg, args, "--shards"), "--shards")
        elif arg == "--replicas" or arg.startswith("--replicas="):
            replicas = _parse_int(
                _flag_value(arg, args, "--replicas"), "--replicas"
            )
        elif arg == "--no-flaky":
            flaky = False
        elif arg == "--configs" or arg.startswith("--configs="):
            value = _flag_value(arg, args, "--configs")
            config_slugs = [s for s in value.split(",") if s]
        else:
            raise UsageError(f"unknown chaoscampaign argument {arg!r}")
    if steps < 1:
        raise UsageError("--steps must be at least 1")
    if shards < 1:
        raise UsageError("--shards must be at least 1")
    if replicas < 2:
        raise UsageError("--replicas must be at least 2")
    configs = None
    if config_slugs is not None:
        unknown = [slug for slug in config_slugs if slug not in CONFIG_SLUGS]
        if unknown or not config_slugs:
            raise UsageError(
                f"unknown or empty configuration slug(s); "
                f"available: {', '.join(CONFIG_SLUGS)}"
            )
        by_label = dict(default_campaign_configs())
        configs = [
            (CONFIG_SLUGS[slug], by_label[CONFIG_SLUGS[slug]])
            for slug in config_slugs
        ]

    result = run_chaos_campaign(
        steps=steps,
        seed=seed,
        shard_count=shards,
        replicas=replicas,
        flaky=flaky,
        configs=configs,
    )
    print(result.format_matrix())
    if not result.ok:
        print()
        for violation in result.violations:
            print(f"VIOLATION: {violation}", file=sys.stderr)
        return 1
    rollbacks = sum(r.rollbacks_injected for r in result.per_config)
    corruptions = sum(r.corruptions for r in result.per_config)
    print(
        f"no acknowledged commit lost, all {rollbacks} rollback(s) "
        f"detected, all {corruptions} single-replica corruption(s) "
        f"repaired, replicas converged"
    )
    return 0


def _scrub(argv: list[str]) -> int:
    from repro.core.keys import KeyChain
    from repro.durability.vdisk import FileDisk
    from repro.engine.schema import Column, ColumnType, TableSchema
    from repro.errors import DiskError
    from repro.observability.leakmon import CONFIG_SLUGS
    from repro.resilience import MirroredDisk, scrub_keyspace
    from repro.robustness.campaign import default_campaign_configs
    from repro.sharding import ShardedKeyspace

    replicas: list[str] = []
    old_masters: list[bytes] = []
    repair = True
    demo = False
    inject: str | None = None
    shards = 2
    slug = "aead-eax"
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--replica" or arg.startswith("--replica="):
            replicas.append(_flag_value(arg, args, "--replica"))
        elif arg == "--old-key" or arg.startswith("--old-key="):
            old_masters.append(
                _parse_key(_flag_value(arg, args, "--old-key"), "--old-key")
            )
        elif arg == "--old-seed" or arg.startswith("--old-seed="):
            old_masters.append(_seed_key(_flag_value(arg, args, "--old-seed")))
        elif arg == "--no-repair":
            repair = False
        elif arg == "--demo":
            demo = True
        elif arg == "--inject-fault" or arg.startswith("--inject-fault="):
            inject = _flag_value(arg, args, "--inject-fault")
        elif arg == "--shards" or arg.startswith("--shards="):
            shards = _parse_int(_flag_value(arg, args, "--shards"), "--shards")
        elif arg == "--config" or arg.startswith("--config="):
            slug = _flag_value(arg, args, "--config")
        else:
            raise UsageError(f"unknown scrub argument {arg!r}")
    if len(replicas) < 2:
        raise UsageError("scrub requires at least two --replica PATH flags")
    if shards < 1:
        raise UsageError("--shards must be at least 1")
    if slug not in CONFIG_SLUGS:
        raise UsageError(
            f"unknown configuration slug {slug!r}; "
            f"available: {', '.join(CONFIG_SLUGS)}"
        )
    if not old_masters:
        old_masters = [_seed_key("repro-demo-master")]

    chain = KeyChain(old_masters)
    disks = [FileDisk(path) for path in replicas]
    mirror = MirroredDisk(disks)
    if demo and not mirror.names():
        config = dict(default_campaign_configs())[CONFIG_SLUGS[slug]]
        keyspace = ShardedKeyspace.open(
            mirror, chain, config, shard_count=shards
        )
        schema = TableSchema("people", [
            Column("id", ColumnType.INT),
            Column("name", ColumnType.TEXT),
            Column("city", ColumnType.TEXT, sensitive=False),
        ])
        keyspace.create_table(schema)
        for i in range(6):
            keyspace.insert("people", [i, f"name-{i:03d}", f"city-{i % 3}"])
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

    report = scrub_keyspace(mirror, chain, repair=repair)
    print(report.format())
    if report.unrepaired:
        print()
        for name in report.unrepaired:
            print(
                f"UNREPAIRABLE: {name} has no authentic copy on any replica",
                file=sys.stderr,
            )
        return 1
    return 0


def _parse_key(value: str, what: str) -> bytes:
    try:
        key = bytes.fromhex(value)
    except ValueError:
        raise UsageError(f"{what} must be a hex string, got {value!r}") from None
    if len(key) < 16:
        raise UsageError(f"{what} must be at least 16 bytes (32 hex digits)")
    return key


def _seed_key(text: str) -> bytes:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).digest()


def _rotate(argv: list[str]) -> int:
    from repro.core.keys import KeyChain
    from repro.durability.vdisk import FileDisk
    from repro.engine.schema import Column, ColumnType, TableSchema
    from repro.observability.leakmon import CONFIG_SLUGS
    from repro.robustness.campaign import default_campaign_configs
    from repro.sharding import ShardedKeyspace

    directory: str | None = None
    old_masters: list[bytes] = []
    new_master: bytes | None = None
    shards = 2
    slug = "aead-eax"
    shard_id: str | None = None
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--dir" or arg.startswith("--dir="):
            directory = _flag_value(arg, args, "--dir")
        elif arg == "--old-key" or arg.startswith("--old-key="):
            old_masters.append(
                _parse_key(_flag_value(arg, args, "--old-key"), "--old-key")
            )
        elif arg == "--old-seed" or arg.startswith("--old-seed="):
            old_masters.append(_seed_key(_flag_value(arg, args, "--old-seed")))
        elif arg == "--new-key" or arg.startswith("--new-key="):
            if new_master is not None:
                raise UsageError("rotate takes exactly one new key")
            new_master = _parse_key(
                _flag_value(arg, args, "--new-key"), "--new-key"
            )
        elif arg == "--new-seed" or arg.startswith("--new-seed="):
            if new_master is not None:
                raise UsageError("rotate takes exactly one new key")
            new_master = _seed_key(_flag_value(arg, args, "--new-seed"))
        elif arg == "--shards" or arg.startswith("--shards="):
            shards = _parse_int(_flag_value(arg, args, "--shards"), "--shards")
        elif arg == "--config" or arg.startswith("--config="):
            slug = _flag_value(arg, args, "--config")
        elif arg == "--shard" or arg.startswith("--shard="):
            shard_id = _flag_value(arg, args, "--shard")
        else:
            raise UsageError(f"unknown rotate argument {arg!r}")
    if directory is None:
        raise UsageError("rotate requires --dir PATH")
    if new_master is None and len(old_masters) < 2:
        # Without a new key the only meaningful run is a *resume*: the
        # supplied chain already holds the target epoch and lagging
        # shards are brought up to its head.
        raise UsageError("rotate requires --new-key HEX or --new-seed TEXT")
    if shards < 1:
        raise UsageError("--shards must be at least 1")
    if slug not in CONFIG_SLUGS:
        raise UsageError(
            f"unknown configuration slug {slug!r}; "
            f"available: {', '.join(CONFIG_SLUGS)}"
        )
    if not old_masters:
        old_masters = [_seed_key("repro-demo-master")]
    if new_master is not None and new_master in old_masters:
        raise UsageError("the new key must differ from every old chain key")

    config = dict(default_campaign_configs())[CONFIG_SLUGS[slug]]
    chain = KeyChain(old_masters)
    keyspace = ShardedKeyspace.open(
        FileDisk(directory), chain, config, shard_count=shards
    )
    for issue in keyspace.recovery.issues:
        print(f"note: {issue}", file=sys.stderr)
    if keyspace.recovery.fresh:
        schema = TableSchema("people", [
            Column("id", ColumnType.INT),
            Column("name", ColumnType.TEXT),
            Column("city", ColumnType.TEXT, sensitive=False),
        ])
        keyspace.create_table(schema)
        for i in range(6):
            keyspace.insert("people", [i, f"name-{i:03d}", f"city-{i % 3}"])
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
    if failures:
        print()
        for failure in failures:
            print(f"VERIFICATION FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"verified: {len(rotated)} shard(s) at epoch {report.to_epoch}, "
          f"manifest ok, row counts preserved")
    return 0


def _collisions(argv: list[str]) -> int:
    if len(argv) > 1:
        raise UsageError("collisions takes at most one argument (trial count)")
    trials = _parse_int(argv[0], "collisions trial count") if argv else 1024
    experiment = run_collision_experiment(trials)
    print(experiment)
    if trials == 1024:
        print("paper's run on its own address set found 6")
    return 0


def _flag_value(arg: str, args: list[str], flag: str) -> str:
    """Value of ``--flag value`` / ``--flag=value`` (shared convention)."""
    if arg == flag:
        if not args:
            raise UsageError(f"{flag} requires a value")
        return args.pop(0)
    return arg.split("=", 1)[1]


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"{what} must be a number, got {text!r}") from None


def _bench(argv: list[str]) -> int:
    from repro.bench import (
        DEFAULT_WALL_THRESHOLD,
        compare_reports,
        divergences,
        load_report,
        next_bench_path,
        run_bench,
        summarize,
        summarize_comparison,
        write_report,
    )

    quick = False
    force = False
    scenario_names: list[str] | None = None
    out: str | None = None
    baseline_path: str | None = None
    threshold = DEFAULT_WALL_THRESHOLD
    delta_out: str | None = None
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--quick":
            quick = True
        elif arg == "--force":
            force = True
        elif arg == "--scenarios" or arg.startswith("--scenarios="):
            value = _flag_value(arg, args, "--scenarios")
            scenario_names = [s for s in value.split(",") if s]
        elif arg == "--out" or arg.startswith("--out="):
            out = _flag_value(arg, args, "--out")
        elif arg == "--baseline" or arg.startswith("--baseline="):
            baseline_path = _flag_value(arg, args, "--baseline")
        elif arg == "--threshold" or arg.startswith("--threshold="):
            threshold = _parse_float(
                _flag_value(arg, args, "--threshold"), "--threshold"
            )
        elif arg == "--delta-out" or arg.startswith("--delta-out="):
            delta_out = _flag_value(arg, args, "--delta-out")
        else:
            raise UsageError(f"unknown bench argument {arg!r}")
    if threshold < 0:
        raise UsageError("--threshold must be non-negative")

    baseline = None
    if baseline_path is not None:
        try:
            baseline = load_report(baseline_path)
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    try:
        report = run_bench(scenario_names, quick=quick)
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
        print()
        for failure in divergences(report):
            print(f"DIVERGENCE: {failure}", file=sys.stderr)
        failed = True
    if baseline is not None:
        delta = compare_reports(baseline, report, wall_threshold=threshold)
        print()
        print(summarize_comparison(delta))
        if delta_out is not None:
            import json as _json
            from pathlib import Path as _Path

            _Path(delta_out).write_text(
                _json.dumps(delta, indent=2, sort_keys=True) + "\n"
            )
            print(f"delta report written to {delta_out}")
        if not delta["ok"]:
            print()
            for regression in delta["regressions"]:
                print(f"REGRESSION: {regression}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


def _backendparity(argv: list[str]) -> int:
    """Cross-backend equivalence sweep: every registered cipher backend
    must produce byte-identical output at three layers — raw blocks,
    whole database images, and batched-vs-sequential engine paths."""
    import hashlib
    import json as _json

    from repro.engine.storage import dump_database
    from repro.primitives.backends import available_backends, get_backend
    from repro.robustness.campaign import build_campaign_db, default_campaign_configs

    out: str | None = None
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--out" or arg.startswith("--out="):
            out = _flag_value(arg, args, "--out")
        else:
            raise UsageError(f"unknown backendparity argument {arg!r}")

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
        from pathlib import Path as _Path

        _Path(out).write_text(_json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"parity report written to {out}")
    for failure in failures:
        print(f"DIVERGENCE: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _audit_replay(
    log_path: str, metrics_jsonl: str | None, metrics_prom: str | None
) -> int:
    from repro.analysis.report import format_table
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


def _audit_live(config_slugs: list[str] | None, log_dir: str | None) -> int:
    from pathlib import Path

    from repro.analysis.report import format_table
    from repro.observability import LeakMonitor, write_snapshot
    from repro.observability.leakmon import CONFIG_SLUGS, PROBES, run_live_profile
    from repro.robustness.campaign import default_campaign_configs

    if config_slugs is None:
        config_slugs = list(CONFIG_SLUGS)
    unknown = [slug for slug in config_slugs if slug not in CONFIG_SLUGS]
    if unknown:
        raise UsageError(
            f"unknown configuration slug(s) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(CONFIG_SLUGS)}"
        )
    if not config_slugs:
        raise UsageError(
            f"no configurations selected; available: {', '.join(CONFIG_SLUGS)}"
        )
    directory = None
    if log_dir is not None:
        directory = Path(log_dir)
        directory.mkdir(parents=True, exist_ok=True)

    configs = dict(default_campaign_configs())
    rows = []
    mismatches = []
    for slug in config_slugs:
        label = CONFIG_SLUGS[slug]
        sink = directory / f"audit-{slug}.jsonl" if directory else None
        monitor, events, offline = run_live_profile(
            configs[label], label, sink_path=sink
        )
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
    if mismatches:
        print()
        for mismatch in mismatches:
            print(f"MISMATCH: {mismatch}", file=sys.stderr)
        return 1
    print("streaming verdicts agree with the offline matrix "
          "(live and replayed) for every configuration")
    return 0


def _audit(argv: list[str]) -> int:
    live = False
    config_slugs: list[str] | None = None
    log_dir: str | None = None
    log_path: str | None = None
    metrics_jsonl: str | None = None
    metrics_prom: str | None = None
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--live":
            live = True
        elif arg == "--configs" or arg.startswith("--configs="):
            value = _flag_value(arg, args, "--configs")
            config_slugs = [s for s in value.split(",") if s]
        elif arg == "--log-dir" or arg.startswith("--log-dir="):
            log_dir = _flag_value(arg, args, "--log-dir")
        elif arg == "--metrics-jsonl" or arg.startswith("--metrics-jsonl="):
            metrics_jsonl = _flag_value(arg, args, "--metrics-jsonl")
        elif arg == "--metrics-prom" or arg.startswith("--metrics-prom="):
            metrics_prom = _flag_value(arg, args, "--metrics-prom")
        elif arg.startswith("--"):
            raise UsageError(f"unknown audit argument {arg!r}")
        elif log_path is None:
            log_path = arg
        else:
            raise UsageError("audit takes at most one log path")

    if live:
        if log_path is not None:
            raise UsageError("--live runs a workload; it does not take a log path")
        return _audit_live(config_slugs, log_dir)
    if log_path is None:
        raise UsageError("audit requires a log path (or --live)")
    if config_slugs is not None or log_dir is not None:
        raise UsageError("--configs/--log-dir only apply to audit --live")
    return _audit_replay(log_path, metrics_jsonl, metrics_prom)


def _resolve_explain_configs(config_slugs: list[str] | None) -> list:
    from repro.observability.leakmon import CONFIG_SLUGS
    from repro.robustness.campaign import default_campaign_configs

    by_label = dict(default_campaign_configs())
    if config_slugs is None:
        config_slugs = list(CONFIG_SLUGS)
    unknown = [slug for slug in config_slugs if slug not in CONFIG_SLUGS]
    if unknown:
        raise UsageError(
            f"unknown configuration slug(s) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(CONFIG_SLUGS)}"
        )
    if not config_slugs:
        raise UsageError(
            f"no configurations selected; available: {', '.join(CONFIG_SLUGS)}"
        )
    return [(CONFIG_SLUGS[slug], by_label[CONFIG_SLUGS[slug]]) for slug in config_slugs]


def _trace(argv: list[str]) -> int:
    from repro.bench.explain import (
        EXPLAIN_SCENARIOS,
        explain_metadata,
        trace_scenario,
    )
    from repro.observability.traceexport import write_chrome_trace

    scenario = "point_query"
    out: str | None = None
    config_slugs: list[str] | None = None
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--scenario" or arg.startswith("--scenario="):
            scenario = _flag_value(arg, args, "--scenario")
        elif arg == "--configs" or arg.startswith("--configs="):
            value = _flag_value(arg, args, "--configs")
            config_slugs = [s for s in value.split(",") if s]
        elif arg == "--out" or arg.startswith("--out="):
            out = _flag_value(arg, args, "--out")
        else:
            raise UsageError(f"unknown trace argument {arg!r}")
    if out is None:
        raise UsageError("trace requires --out PATH")
    if scenario not in EXPLAIN_SCENARIOS:
        raise UsageError(
            f"unknown trace scenario {scenario!r}; "
            f"available: {', '.join(EXPLAIN_SCENARIOS)}"
        )
    configs = _resolve_explain_configs(config_slugs)

    spans = []
    for label, config in configs:
        result = trace_scenario(scenario, label, config)
        if result.skipped is not None:
            print(f"skipped {label}: {result.skipped}")
            continue
        spans.extend(result.spans)
    metadata = explain_metadata(scenario, [label for label, _ in configs])
    path = write_chrome_trace(out, spans, metadata)
    print(
        f"{len(spans)} spans from scenario {scenario!r} written to {path} "
        "(open in Perfetto or chrome://tracing)"
    )
    return 0


def _explain(argv: list[str]) -> int:
    from repro.bench.explain import (
        EXPLAIN_SCENARIOS,
        render_explain_report,
        trace_scenario,
    )

    scenario: str | None = None
    config_slugs: list[str] | None = None
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--configs" or arg.startswith("--configs="):
            value = _flag_value(arg, args, "--configs")
            config_slugs = [s for s in value.split(",") if s]
        elif arg.startswith("--"):
            raise UsageError(f"unknown explain argument {arg!r}")
        elif scenario is None:
            scenario = arg
        else:
            raise UsageError("explain takes exactly one scenario")
    if scenario is None:
        raise UsageError(
            f"explain requires a scenario; available: {', '.join(EXPLAIN_SCENARIOS)}"
        )
    if scenario not in EXPLAIN_SCENARIOS:
        raise UsageError(
            f"unknown explain scenario {scenario!r}; "
            f"available: {', '.join(EXPLAIN_SCENARIOS)}"
        )
    configs = _resolve_explain_configs(config_slugs)

    results = [trace_scenario(scenario, label, config) for label, config in configs]
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
    if mismatches:
        print()
        for mismatch in mismatches:
            print(f"DIVERGENCE: {mismatch}", file=sys.stderr)
        return 1
    return 0


def _monitor(argv: list[str]) -> int:
    from repro.bench import load_report
    from repro.observability.export import (
        render_prometheus_samples,
        render_series_jsonl,
        series_dropped_samples,
    )
    from repro.observability.health import load_rules
    from repro.observability.monitor import (
        INJECTIONS,
        monitor_scenarios,
        run_monitor,
        validate_health_report,
        write_health,
    )

    scenario = "shard_rotation"
    config_slugs: list[str] | None = ["aead-eax"]
    quick = False
    follow = False
    out: str | None = None
    baseline_path: str | None = None
    rules_path: str | None = None
    prom_path: str | None = None
    jsonl_path: str | None = None
    inject: list[str] = []
    limit: int | None = None
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--scenario" or arg.startswith("--scenario="):
            scenario = _flag_value(arg, args, "--scenario")
        elif arg == "--configs" or arg.startswith("--configs="):
            value = _flag_value(arg, args, "--configs")
            config_slugs = [s for s in value.split(",") if s]
        elif arg == "--quick":
            quick = True
        elif arg == "--follow":
            follow = True
        elif arg == "--out" or arg.startswith("--out="):
            out = _flag_value(arg, args, "--out")
        elif arg == "--baseline" or arg.startswith("--baseline="):
            baseline_path = _flag_value(arg, args, "--baseline")
        elif arg == "--rules" or arg.startswith("--rules="):
            rules_path = _flag_value(arg, args, "--rules")
        elif arg == "--prom" or arg.startswith("--prom="):
            prom_path = _flag_value(arg, args, "--prom")
        elif arg == "--jsonl" or arg.startswith("--jsonl="):
            jsonl_path = _flag_value(arg, args, "--jsonl")
        elif arg == "--inject" or arg.startswith("--inject="):
            fault = _flag_value(arg, args, "--inject")
            if fault not in INJECTIONS:
                raise UsageError(
                    f"unknown injection {fault!r}; "
                    f"available: {', '.join(INJECTIONS)}"
                )
            inject.append(fault)
        elif arg == "--limit" or arg.startswith("--limit="):
            limit = _parse_int(_flag_value(arg, args, "--limit"), "--limit")
        else:
            raise UsageError(f"unknown monitor argument {arg!r}")
    if scenario not in monitor_scenarios():
        raise UsageError(
            f"unknown scenario {scenario!r}; "
            f"available: {', '.join(monitor_scenarios())}"
        )
    configs = _resolve_explain_configs(config_slugs)

    baseline = None
    if baseline_path is not None:
        try:
            baseline = load_report(baseline_path)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    extra_rules = None
    if rules_path is not None:
        import json as _json

        try:
            specs = _json.loads(Path(rules_path).read_text())
            if not isinstance(specs, list):
                raise ValueError("a rules file holds a JSON array of rule objects")
            extra_rules = load_rules(specs)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load rules from {rules_path}: {exc}") from None

    def dashboard(tick, hub):
        # Pull-sampled series land on this tick; pushed gauges landed
        # between the previous tick and this one — show both.
        fresh = [
            (series.name, series.labels, sample[1])
            for series in hub.all_series(include_volatile=True)
            for sample in [series.last()]
            if sample is not None and sample[0] + 1 >= tick
        ]
        print(f"tick {tick:>5}  ({len(fresh)} series updated)")
        for name, labels, value in fresh:
            rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            print(f"    {name}{{{rendered}}} = {value:g}")

    doc = run_monitor(
        scenario=scenario,
        config_items=configs,
        quick=quick,
        baseline=baseline,
        extra_rules=extra_rules,
        inject=inject,
        limit=limit,
        follow=dashboard if follow else None,
    )
    problems = validate_health_report(doc)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
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


def _forensics(argv: list[str]) -> int:
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
    from repro.observability.monitor import INJECTIONS

    chaos = False
    healthy = False
    flight_path: str | None = None
    show_timeline = False
    steps = 24
    seed = 0
    shards = 2
    replicas = 3
    flaky = True
    config_slugs: list[str] | None = None
    scenario = "point_query"
    inject: list[str] = []
    limit: int | None = None
    out: str | None = None
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--chaos":
            chaos = True
        elif arg == "--healthy":
            healthy = True
        elif arg == "--scorecard":
            pass  # the scorecard is always printed; kept for symmetry
        elif arg == "--timeline":
            show_timeline = True
        elif arg == "--steps" or arg.startswith("--steps="):
            steps = _parse_int(_flag_value(arg, args, "--steps"), "--steps")
        elif arg == "--seed" or arg.startswith("--seed="):
            seed = _parse_int(_flag_value(arg, args, "--seed"), "--seed")
        elif arg == "--shards" or arg.startswith("--shards="):
            shards = _parse_int(_flag_value(arg, args, "--shards"), "--shards")
        elif arg == "--replicas" or arg.startswith("--replicas="):
            replicas = _parse_int(
                _flag_value(arg, args, "--replicas"), "--replicas"
            )
        elif arg == "--no-flaky":
            flaky = False
        elif arg == "--configs" or arg.startswith("--configs="):
            value = _flag_value(arg, args, "--configs")
            config_slugs = [s for s in value.split(",") if s]
        elif arg == "--scenario" or arg.startswith("--scenario="):
            scenario = _flag_value(arg, args, "--scenario")
        elif arg == "--inject" or arg.startswith("--inject="):
            fault = _flag_value(arg, args, "--inject")
            if fault not in INJECTIONS:
                raise UsageError(
                    f"unknown injection {fault!r}; "
                    f"available: {', '.join(INJECTIONS)}"
                )
            inject.append(fault)
        elif arg == "--limit" or arg.startswith("--limit="):
            limit = _parse_int(_flag_value(arg, args, "--limit"), "--limit")
        elif arg == "--out" or arg.startswith("--out="):
            out = _flag_value(arg, args, "--out")
        elif arg.startswith("--"):
            raise UsageError(f"unknown forensics argument {arg!r}")
        elif flight_path is None:
            flight_path = arg
        else:
            raise UsageError("forensics takes at most one FLIGHT.json path")

    modes = sum([chaos, healthy, flight_path is not None])
    if modes != 1:
        raise UsageError(
            "forensics requires exactly one of: a FLIGHT.json path, "
            "--chaos, or --healthy"
        )
    if steps < 1:
        raise UsageError("--steps must be at least 1")
    if shards < 1:
        raise UsageError("--shards must be at least 1")
    if replicas < 2:
        raise UsageError("--replicas must be at least 2")

    if healthy:
        from repro.observability.monitor import monitor_scenarios

        if scenario not in monitor_scenarios():
            raise UsageError(
                f"unknown scenario {scenario!r}; "
                f"available: {', '.join(monitor_scenarios())}"
            )
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
        if show_timeline:
            print(render_timeline(build_timeline(doc)))
        if incidents:
            print()
            for incident in incidents:
                print(f"INCIDENT: {incident}", file=sys.stderr)
            return 1
        print("no incidents: zero alerts, zero typed errors, "
              "zero false positives")
        return 0

    if chaos:
        configs = None
        if config_slugs is not None:
            from repro.observability.leakmon import CONFIG_SLUGS
            from repro.robustness.campaign import default_campaign_configs

            unknown = [s for s in config_slugs if s not in CONFIG_SLUGS]
            if unknown or not config_slugs:
                raise UsageError(
                    f"unknown or empty configuration slug(s); "
                    f"available: {', '.join(CONFIG_SLUGS)}"
                )
            by_label = dict(default_campaign_configs())
            configs = [
                (CONFIG_SLUGS[s], by_label[CONFIG_SLUGS[s]])
                for s in config_slugs
            ]
        campaign, doc, scorecard = run_chaos_flight(
            steps=steps,
            seed=seed,
            configs=configs,
            shard_count=shards,
            replicas=replicas,
            flaky=flaky,
            out=out,
        )
        print(render_scorecard(scorecard))
        if out is not None:
            print(f"flight document written to {out}")
        if show_timeline:
            print(render_timeline(build_timeline(doc)))
        problems = []
        if not campaign.ok:
            problems.extend(campaign.violations)
        problems.extend(scorecard_gate(scorecard, require=GATED_CLASSES))
        if problems:
            print()
            for problem in problems:
                print(f"GATE FAILED: {problem}", file=sys.stderr)
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
    if show_timeline:
        print(render_timeline(build_timeline(doc)))
    problems = scorecard_gate(scorecard)
    if problems:
        print()
        for problem in problems:
            print(f"GATE FAILED: {problem}", file=sys.stderr)
        return 1
    print("scorecard gate: OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(__doc__)
        return 2
    command, *rest = argv
    try:
        if command == "demo":
            return _demo(rest)
        if command == "attacks":
            return _attacks(rest)
        if command == "overhead":
            return _overhead(rest)
        if command == "collisions":
            return _collisions(rest)
        if command == "faultcampaign":
            return _faultcampaign(rest)
        if command == "crashcampaign":
            return _crashcampaign(rest)
        if command == "chaoscampaign":
            return _chaoscampaign(rest)
        if command == "scrub":
            return _scrub(rest)
        if command == "rotate":
            return _rotate(rest)
        if command == "bench":
            return _bench(rest)
        if command == "backendparity":
            return _backendparity(rest)
        if command == "audit":
            return _audit(rest)
        if command == "trace":
            return _trace(rest)
        if command == "explain":
            return _explain(rest)
        if command == "monitor":
            return _monitor(rest)
        if command == "forensics":
            return _forensics(rest)
    except UsageError as exc:
        print(f"error: {exc}\n", file=sys.stderr)
        print(__doc__)
        return 2
    print(f"unknown command {command!r}\n", file=sys.stderr)
    print(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
