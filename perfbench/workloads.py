"""The four workloads: seeded inputs, a plaintext oracle, and the runs.

Every workload runs the paper's Sect. 4 fix
(``EncryptionConfig.paper_fixed("eax")``) on the ``optimized`` cipher
backend, from one process with one closed-loop client: the next
operation is sent only after the previous one has returned.  Each
operation is timed on its own with ``time.perf_counter`` around the
public API call, and its answer is checked against a plaintext model
outside that interval.

The op stream is a pure function of ``(seed, seconds)``: ``--seconds``
sets its length at the workload's sizing rate (:data:`OPS_PER_SECOND`),
so two runs of one seed execute the same operations and must leave the
same bytes (see :mod:`perfbench.identity`).
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import string
import time
from statistics import median
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from perfbench.layers import OP_PHASES, LayerProbe, coverage_ok
from perfbench.speed import SpeedGauge
from perfbench.stats import min_samples, percentile

from repro import observability
from repro.core.encrypted_db import EncryptedDatabase, EncryptionConfig
from repro.core.keys import KeyChain
from repro.durability.vdisk import MemoryDisk
from repro.engine.indextable import IndexTable
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database
from repro.errors import ReproError
from repro.observability.timeseries import HUB
from repro.resilience.replica import MirroredDisk
from repro.sharding.keyspace import ShardedKeyspace

CONFIG = EncryptionConfig.paper_fixed("eax").with_(backend="optimized")
MASTER_KEY = b"perfbench-master-key/0123456789a"
ROTATED_KEY = b"perfbench-rotated-key/123456789a"
TABLE = "records"
SCHEMA = TableSchema(
    TABLE,
    [
        Column("id", ColumnType.INT),
        Column("payload", ColumnType.TEXT),
        Column("note", ColumnType.TEXT),
    ],
)
PAYLOAD_LEN, NOTE_LEN = 38, 50

#: Rows loaded by the in-memory workloads' set-up.
MEMORY_ROWS = 2000
#: Rows per range query on ``id``.
RANGE_WIDTH = 50
#: Durable workload: shards, replicas, rows between checkpoints, remounts.
SHARDS, REPLICAS, CHECKPOINT_EVERY, RECOVER_MOUNTS = 2, 3, 100, 3
#: Durable workload: set-ups per run (cheap, so setup_s is their median).
DURABLE_SETUPS = 15
#: Op-stream length per benchmark second, sized to the measured rate on
#: a 2-core x86-64 box so the timed phase lasts about ``--seconds``.
OPS_PER_SECOND = {"point": 250, "range": 17, "durable": 50}
#: In a traced run, operations alternate between untraced and traced
#: blocks of this many, so the run also measures the untraced rate.
TRACE_BLOCK = 10
#: Op kind -> the latency class it is reported under.
OP_CLASS = {
    "lookup_id": "lookup",
    "lookup_payload": "lookup",
    "insert": "insert",
    "range": "range",
    "prefix": "range",
}


@dataclass(frozen=True)
class Op:
    kind: str
    arg: Any


Row = tuple


def _text(rng: random.Random, length: int, alphabet: str) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


def random_rows(seed: int, count: int, start: int = 0) -> list[Row]:
    """Rows with uniform random payloads (no shared prefixes beyond chance)."""
    rng = random.Random(f"perfbench/rows/{seed}/{start}")
    return [
        (
            i,
            _text(rng, PAYLOAD_LEN, string.ascii_lowercase),
            _text(rng, NOTE_LEN, string.ascii_uppercase),
        )
        for i in range(start, start + count)
    ]


def sequenced_rows(seed: int, count: int) -> list[Row]:
    """Rows whose payloads are append-ordered, as ingest keys are."""
    rng = random.Random(f"perfbench/sequenced/{seed}")
    return [
        (
            i,
            f"seq-{i:06d}-" + _text(rng, PAYLOAD_LEN - 11, string.ascii_lowercase),
            _text(rng, NOTE_LEN, string.ascii_uppercase),
        )
        for i in range(count)
    ]


def _shuffled_kinds(rng: random.Random, n_ops: int, shares: dict[str, float]) -> list[str]:
    """Exactly ``round(share * n_ops)`` ops of each kind, in seeded order."""
    kinds: list[str] = []
    for kind, share in shares.items():
        kinds += [kind] * round(share * n_ops)
    kinds = kinds[:n_ops]
    kinds += [next(iter(shares))] * (n_ops - len(kinds))
    rng.shuffle(kinds)
    return kinds


def point_stream(seed: int, rows: Sequence[Row], n_ops: int) -> list[Op]:
    """60 % lookups on ``id``, 30 % on ``payload``, 10 % inserts of the
    next id; lookups pick uniformly among every row stored so far."""
    rng = random.Random(f"perfbench/point/{seed}")
    kinds = _shuffled_kinds(
        rng, n_ops, {"lookup_id": 0.6, "lookup_payload": 0.3, "insert": 0.1}
    )
    stored = list(rows)
    new_rows = iter(random_rows(seed, kinds.count("insert"), start=len(rows)))
    ops = []
    for kind in kinds:
        if kind == "insert":
            row = next(new_rows)
            stored.append(row)
            ops.append(Op(kind, row))
        elif kind == "lookup_id":
            ops.append(Op(kind, rng.randrange(len(stored))))
        else:
            ops.append(Op(kind, stored[rng.randrange(len(stored))][1]))
    return ops


def range_stream(seed: int, rows: Sequence[Row], n_ops: int) -> list[Op]:
    """80 % ranges of :data:`RANGE_WIDTH` ids, 20 % one-letter prefixes."""
    rng = random.Random(f"perfbench/range/{seed}")
    kinds = _shuffled_kinds(rng, n_ops, {"range": 0.8, "prefix": 0.2})
    return [
        Op(kind, rng.randrange(len(rows) - RANGE_WIDTH + 1))
        if kind == "range"
        else Op(kind, rng.choice(string.ascii_lowercase))
        for kind in kinds
    ]


def stream_length(family: str, seconds: int) -> int:
    """Ops for ``seconds``, never fewer than the percentile rule needs."""
    wanted = OPS_PER_SECOND[family] * seconds
    if family == "point":
        # Inserts are 10 % of the stream and report a p90.
        floor = 10 * min_samples(0.90)
    elif family == "range":
        floor = min_samples(0.90)
    else:
        # Every row is read back once after the crash and reports a p95.
        floor = max(min_samples(0.95), min_samples(0.90))
    return max(wanted, floor)


class Model:
    """The plaintext oracle: what every query must answer."""

    def __init__(self, rows: Sequence[Row]) -> None:
        self.by_id: dict[int, Row] = {}
        self.by_payload: dict[str, list[Row]] = defaultdict(list)
        for row in rows:
            self.insert(row)

    def insert(self, row: Row) -> None:
        self.by_id[row[0]] = row
        self.by_payload[row[1]].append(row)

    def expect(self, op: Op) -> list[Row]:
        if op.kind == "lookup_id":
            return [self.by_id[op.arg]] if op.arg in self.by_id else []
        if op.kind == "lookup_payload":
            return sorted(self.by_payload.get(op.arg, []))
        if op.kind == "range":
            return [self.by_id[i] for i in range(op.arg, op.arg + RANGE_WIDTH) if i in self.by_id]
        if op.kind == "prefix":
            return sorted(r for r in self.by_id.values() if r[1].startswith(op.arg))
        raise ValueError(f"no expected answer for {op.kind}")

    def user_bytes(self) -> int:
        return sum(row_bytes(row) for row in self.by_id.values())


def row_bytes(row: Row) -> int:
    """Encoded plaintext bytes of one row: the user's data."""
    return sum(len(cell) for cell in SCHEMA.encode_row(list(row)))


def answer_rows(result: Sequence[tuple]) -> list[Row]:
    """Rows of a ``Database`` ``(row_id, values)`` or ``ShardedKeyspace``
    ``(shard, row_id, values)`` answer, in a canonical order."""
    return sorted(tuple(item[-1]) for item in result)


# -- running ------------------------------------------------------------------


@dataclass
class Run:
    """What one run measured and found."""

    seed: int
    probe: LayerProbe | None = None
    #: (latency class, start, seconds) of every timed operation.
    timeline: list[tuple[str, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    facts: dict[str, Any] = field(default_factory=dict)
    #: (start, end) of the timed op phase, and of each set-up, remount
    #: and rotation.
    phase: tuple[float, float] = (0.0, 0.0)
    intervals: dict[str, list[tuple[float, float]]] = field(
        default_factory=lambda: defaultdict(list)
    )
    traced_ops: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    traced_wall: float = 0.0
    untraced_ops: int = 0
    untraced_wall: float = 0.0
    #: Tallest index table at the end of the op phase (traced runs).
    indextable_height: int = 0
    gauge: SpeedGauge = field(default_factory=SpeedGauge)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, op: Op, answer: Any, expected: list[Row] | None) -> None:
        """Count one attempted operation; ``expected=None`` checks only
        that it did not raise."""
        self.attempted += 1
        if isinstance(answer, ReproError):
            self.fail(f"{op.kind}({op.arg!r}) raised {type(answer).__name__}: {answer}")
        elif expected is not None and answer_rows(answer) != expected:
            self.fail(f"{op.kind}({op.arg!r}) answered {len(answer)} row(s), "
                      f"expected {len(expected)}")

    # -- timing one operation ----------------------------------------------

    def timed(self, index: int, cls: str, call: Callable[[], Any]):
        """Run one operation; returns its answer, or the error it raised.

        In a traced run, blocks of :data:`TRACE_BLOCK` operations
        alternate between untraced and traced.
        """
        self.gauge.sample()
        probe = self.probe
        traced = probe is not None and (index // TRACE_BLOCK) % 2 == 1
        if probe is not None:
            if traced:
                probe.install()
                probe.tracer.phase = cls
                probe.tracer.op_id = index
            else:
                probe.uninstall()
        start = time.perf_counter()
        try:
            answer = call()
        except ReproError as exc:
            answer = exc
        elapsed = time.perf_counter() - start
        self.timeline.append((cls, start, elapsed))
        if probe is not None:
            if traced:
                self.traced_ops[cls] += 1
                self.traced_wall += elapsed
            else:
                self.untraced_ops += 1
                self.untraced_wall += elapsed
        return answer

    def mark(self, name: str, start: float) -> None:
        """Record one set-up, remount or rotation that began at ``start``."""
        self.intervals[name].append((start, time.perf_counter()))

    def latencies(self, cls: str) -> list[float]:
        return [elapsed for kind, _, elapsed in self.timeline if kind == cls]

    def calibrate(self, samples: int = 20) -> None:
        """Sample the host's speed around work that is not an op."""
        for _ in range(samples):
            self.gauge.sample()

    def traced_phase(self, phase: str):
        """Trace everything until the next op (for non-op phases)."""
        if self.probe is not None:
            self.probe.install()
            self.probe.tracer.phase = phase

    def untraced(self) -> None:
        if self.probe is not None:
            self.probe.uninstall()
            self.probe.tracer.phase = "idle"

    def count(self, name: str, amount: float) -> None:
        if self.probe is not None and self.probe.installed:
            self.probe.tracer.count(name, amount)


def _structures(databases) -> list:
    return [db.index(name).structure for db in databases for name in db.index_names]


def _indextable_height(structures) -> int:
    return max((s.height() for s in structures if isinstance(s, IndexTable)), default=0)


def _sha256(blobs: dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for name in sorted(blobs):
        digest.update(name.encode() + b"\0" + len(blobs[name]).to_bytes(8, "big"))
        digest.update(blobs[name])
    return digest.hexdigest()


def run_memory(run: Run, seconds: int, family: str, monitored: bool) -> None:
    """``point_mix``, ``point_mix_monitored`` and ``range_scan``."""
    rows = random_rows(run.seed, MEMORY_ROWS)
    if family == "point":
        ops = point_stream(run.seed, rows, stream_length("point", seconds))
    else:
        ops = range_stream(run.seed, rows, stream_length("range", seconds))
    model = Model(rows)
    if monitored:
        observability.enable()
        HUB.enable()

    run.calibrate()
    setup_start = time.perf_counter()
    db = EncryptedDatabase(MASTER_KEY, CONFIG)
    db.create_table(SCHEMA)
    db.insert_many(TABLE, [list(row) for row in rows])
    db.create_index("records_by_id", TABLE, "id", kind="btree")
    db.create_index("records_by_payload", TABLE, "payload", kind="table")
    run.mark("setup", setup_start)
    run.calibrate()
    if run.probe is not None:
        run.probe.watch(_structures([db]))

    calls: dict[str, Callable[[Any], Any]] = {
        "lookup_id": lambda arg: db.select_equals(TABLE, "id", arg),
        "lookup_payload": lambda arg: db.select_equals(TABLE, "payload", arg),
        "insert": lambda arg: db.insert(TABLE, list(arg)),
        "range": lambda arg: db.select_range(TABLE, "id", arg, arg + RANGE_WIDTH - 1),
        "prefix": lambda arg: db.select_prefix(TABLE, "payload", arg),
    }
    gc.collect()
    phase_start = time.perf_counter()
    for index, op in enumerate(ops):
        answer = run.timed(index, OP_CLASS[op.kind], lambda: calls[op.kind](op.arg))
        if op.kind == "insert":
            run.count("user.bytes", row_bytes(op.arg))
            run.check(op, answer, None)
            if not isinstance(answer, ReproError):
                model.insert(op.arg)
        else:
            run.check(op, answer, model.expect(op))
    run.phase = (phase_start, time.perf_counter())
    run.untraced()
    if run.probe is not None:
        run.indextable_height = _indextable_height(_structures([db]))

    run.attempted += 1
    if db.count(TABLE) != len(model.by_id):
        run.fail(f"count is {db.count(TABLE)}, model holds {len(model.by_id)}")
    image = dump_database(db)
    run.facts["image_sha256"] = _sha256({"image": image})
    run.facts["stored_bytes_per_user_byte"] = len(image) / model.user_bytes()


def _durable_setup() -> tuple[list[MemoryDisk], ShardedKeyspace]:
    bases = [MemoryDisk() for _ in range(REPLICAS)]
    keyspace = ShardedKeyspace.open(
        MirroredDisk(bases), KeyChain.single(MASTER_KEY), CONFIG,
        shard_count=SHARDS, workers=1,
    )
    keyspace.create_table(SCHEMA)
    keyspace.create_index("records_by_id", TABLE, "id", kind="btree")
    keyspace.create_index("records_by_payload", TABLE, "payload", kind="table")
    return bases, keyspace


def _keyspace_databases(keyspace: ShardedKeyspace) -> list:
    return [shard.manager.database for shard in keyspace.shards]


def run_durable(run: Run, seconds: int) -> None:
    """``durable_ingest``: ordered ingest, checkpoints, crash, remount,
    read-back of every acknowledged row, then one online rotation."""
    rows = sequenced_rows(run.seed, stream_length("durable", seconds))
    for _ in range(DURABLE_SETUPS):
        run.calibrate(4)
        start = time.perf_counter()
        bases, keyspace = _durable_setup()
        run.mark("setup", start)
    run.calibrate(4)
    if run.probe is not None:
        run.probe.watch(_structures(_keyspace_databases(keyspace)))

    acknowledged: list[Row] = []
    gc.collect()
    phase_start = time.perf_counter()
    for index, row in enumerate(rows):
        answer = run.timed(index, "insert", lambda: keyspace.insert(TABLE, list(row)))
        run.count("user.bytes", row_bytes(row))
        run.check(Op("insert", row), answer, None)
        if isinstance(answer, ReproError):
            continue
        acknowledged.append(row)
        if (index + 1) % CHECKPOINT_EVERY == 0 and index + 1 < len(rows):
            # The last stretch stays in the WAL, so remounting replays it.
            run.traced_phase("checkpoint")
            run.count("checkpoints", 1)
            keyspace.checkpoint()
    run.phase = (phase_start, time.perf_counter())
    run.untraced()
    inserts = run.latencies("insert")
    # Median insert per checkpoint interval: how ordered keys grow the cost.
    run.facts["insert_p50_ms_per_interval"] = [
        median(inserts[i : i + CHECKPOINT_EVERY]) * 1e3
        for i in range(0, len(inserts), CHECKPOINT_EVERY)
    ]
    if run.probe is not None:
        run.indextable_height = _indextable_height(
            _structures(_keyspace_databases(keyspace))
        )

    # Power cut on every replica: whatever was not synced is lost.
    for base in bases:
        base.crash(drop_unsynced=True)
    for _ in range(RECOVER_MOUNTS):
        replicas = [base.clone() for base in bases]
        run.calibrate(4)
        run.traced_phase("recover")
        start = time.perf_counter()
        recovered = ShardedKeyspace.open(
            MirroredDisk(replicas), KeyChain.single(MASTER_KEY), CONFIG, workers=1
        )
        run.mark("recover", start)
        run.untraced()
    run.calibrate(4)
    run.facts["replay_records"] = sum(
        shard.manager.recovery.records_replayed for shard in recovered.shards
    )
    if run.probe is not None:
        run.probe.watch(_structures(_keyspace_databases(recovered)))

    model = Model(acknowledged)
    run.attempted += 1
    if recovered.count(TABLE) != len(acknowledged):
        run.fail(
            f"after the crash {recovered.count(TABLE)} rows remain, "
            f"{len(acknowledged)} were acknowledged"
        )
    for index, row in enumerate(acknowledged):
        op = Op("lookup_id", row[0])
        answer = run.timed(
            index, "lookup", lambda: recovered.select_equals(TABLE, "id", op.arg)
        )
        run.check(op, answer, model.expect(op))
    run.untraced()

    run.calibrate(4)
    run.traced_phase("rotate")
    start = time.perf_counter()
    try:
        report = recovered.rotate(ROTATED_KEY)
    except ReproError as exc:
        report = exc
    run.mark("rotate", start)
    run.untraced()
    run.calibrate(4)
    run.attempted += 1
    if isinstance(report, ReproError):
        run.fail(f"rotate raised {type(report).__name__}: {report}")
    elif report.cells_reencrypted != len(acknowledged) * len(SCHEMA.columns):
        run.fail(
            f"rotate re-encrypted {report.cells_reencrypted} cells, expected "
            f"{len(acknowledged) * len(SCHEMA.columns)}"
        )
    # Every row must still read back under the new epoch's keys.
    for row in acknowledged:
        op = Op("lookup_id", row[0])
        try:
            answer = recovered.select_equals(TABLE, "id", op.arg)
        except ReproError as exc:
            answer = exc
        run.check(op, answer, model.expect(op))

    blobs = replicas[0].durable_state()
    run.facts["image_sha256"] = _sha256(blobs)
    run.facts["stored_bytes_per_user_byte"] = (
        sum(len(blob) for blob in blobs.values()) / model.user_bytes()
    )


# -- workloads and their metrics ----------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: Callable[[Run, int], None]
    #: Latency class behind primary_p50_ms / primary_p90_ms.
    primary: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "point_mix",
            "index descent and index-entry crypto dominate; one row's 3 cells "
            "are decoded per lookup",
            lambda run, seconds: run_memory(run, seconds, "point", monitored=False),
            "lookup",
        ),
        Workload(
            "range_scan",
            "each query decodes 150-230 cells but few index entries: the "
            "cell codec's workload",
            lambda run, seconds: run_memory(run, seconds, "range", monitored=False),
            "range",
        ),
        Workload(
            "durable_ingest",
            "WAL append, sync, replica fan-out, checkpoint, crash recovery and "
            "rotation, with append-ordered index keys",
            run_durable,
            "insert",
        ),
        Workload(
            "point_mix_monitored",
            "point_mix's op stream with metrics, tracing and telemetry on, as "
            "repro monitor runs",
            lambda run, seconds: run_memory(run, seconds, "point", monitored=True),
            "lookup",
        ),
    )
}

#: End-to-end metrics every run reports (name -> unit).
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "primary_p50_ms": "ms",
    "primary_p90_ms": "ms",
    "stored_bytes_per_user_byte": "ratio",
    "peak_rss_mb": "MB",
}

_TAILS = {"lookup": 0.95, "insert": 0.90, "range": 0.90}

#: ``scale(begin, end)`` -> factor applied to work timed in that interval.
Scale = Callable[[float, float], float]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def workload_report(run: Run, workload: Workload, scale: Scale) -> dict[str, float]:
    """Every end-to-end metric the workload measures, by its full name.

    ``scale(begin, end)`` gives the factor for work done in that interval:
    1 for wall-clock time, the speed gauge's for reference-speed time.
    """

    def scaled(begin: float, seconds: float) -> float:
        return seconds * scale(begin, begin + seconds)

    begin, end = run.phase
    in_phase = sorted(
        (start, elapsed) for _, start, elapsed in run.timeline if begin <= start <= end
    )
    bounds = [begin] + [start for start, _ in in_phase[1:]] + [end]
    phase_s = sum(
        (bounds[i + 1] - bounds[i]) * scale(start, start + elapsed)
        for i, (start, elapsed) in enumerate(in_phase)
    )
    report: dict[str, float] = {
        "setup_s": median([scaled(a, b - a) for a, b in run.intervals["setup"]]),
        "ops_per_s": len(in_phase) / phase_s,
        "error_rate": run.failed / run.attempted,
        "stored_bytes_per_user_byte": run.facts["stored_bytes_per_user_byte"],
        "peak_rss_mb": peak_rss_mb(),
    }
    classes = sorted({cls for cls, _, _ in run.timeline})
    for cls in classes:
        samples = [scaled(a, t) for kind, a, t in run.timeline if kind == cls]
        tail = _TAILS[cls]
        report[f"{cls}_p50_ms"] = percentile(samples, 0.50) * 1e3
        report[f"{cls}_p{round(tail * 100)}_ms"] = percentile(samples, tail) * 1e3
        report[f"{cls}_samples"] = len(samples)
        if cls == workload.primary:
            report["primary_p50_ms"] = report[f"{cls}_p50_ms"]
            report["primary_p90_ms"] = percentile(samples, 0.90) * 1e3
    if run.intervals["recover"]:
        report["recover_s"] = median(
            [scaled(a, b - a) for a, b in run.intervals["recover"]]
        )
    for a, b in run.intervals["rotate"]:
        report["rotate_s"] = scaled(a, b - a)
    return report


def layer_report(run: Run) -> dict[str, float]:
    """Per-layer metrics of a traced run, plus the trace's own checks."""
    traced_ops = {phase: run.traced_ops.get(phase, 0) for phase in OP_PHASES}
    metrics = run.probe.metrics(traced_ops, run.traced_wall, run.indextable_height)
    metrics["durability.replay_records"] = float(run.facts.get("replay_records", 0))
    traced_rate = sum(traced_ops.values()) / run.traced_wall
    untraced_rate = run.untraced_ops / run.untraced_wall
    metrics["trace.overhead"] = traced_rate / untraced_rate
    if not coverage_ok(metrics["trace.coverage"]):
        run.problems.append(
            f"layer self times cover {metrics['trace.coverage']:.4f} of traced "
            f"op wall time, outside the stated tolerance"
        )
    return metrics


def execute(workload_name: str, seed: int, seconds: int, trace: bool) -> Run:
    workload = WORKLOADS[workload_name]
    run = Run(seed, probe=LayerProbe() if trace else None)
    if run.probe is not None:
        run.probe.tracer.keep_spans = 4000
    try:
        workload.run(run, seconds)
    finally:
        if run.probe is not None:
            run.probe.uninstall()
        observability.disable()
        HUB.disable()
    return run
