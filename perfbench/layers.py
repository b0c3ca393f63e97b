"""Per-layer tracing from outside the program.

The benchmark times each layer without touching program code: it wraps
the public entry points of one class per layer module (the table
:data:`ENTRY_POINTS`) in a span, and counts work at the same
boundaries.  A span's *self time* is its duration minus the time its
child spans cover, so the self times of every layer in one operation
add up to that operation's root span: :func:`LayerProbe.metrics` checks
that sum against the operation's measured wall time
(:data:`COVERAGE_TOLERANCE`).

Code in modules that are not wrapped (``engine.table``,
``engine.schema``, ``engine.storage``, ``modes``, ``primitives.util``,
...) is charged to the nearest wrapped caller: table and schema work to
``engine.database``, image serialisation to ``durability``.

Wrapping is installed and removed between blocks of operations, so a
traced run also measures the untraced rate and reports the overhead.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

#: Operation phases; per-op metrics divide by traced operations of these.
OP_PHASES = ("lookup", "insert", "range")

#: Layer self times must cover this share of traced op wall time or more
#: (and never more than all of it).  What is missing is the wrappers' own
#: call overhead outside their spans plus the benchmark's timer calls.
COVERAGE_TOLERANCE = 0.10

_CIPHER = ("encrypt_block", "decrypt_block", "encrypt_blocks", "decrypt_blocks")
_AEAD = ("encrypt", "decrypt", "encrypt_batch", "decrypt_batch")
_DISK = ("read", "exists", "names", "append", "write", "rename", "delete", "sync")
_DISK_MUTATIONS = frozenset({"append", "write", "rename", "delete", "sync"})


@dataclass(frozen=True)
class EntryPoint:
    module: str
    cls: str
    layer: str
    methods: tuple[str, ...]


#: The primitives layer is every block cipher implementation, whichever
#: backend builds it: the concrete subclasses of this base class.
CIPHER_BASE = ("repro.primitives.blockcipher", "BlockCipher")

#: One row per wrapped class: (module, class, layer, public entry points).
ENTRY_POINTS = (
    EntryPoint("repro.aead.eax", "EAX", "aead", _AEAD),
    EntryPoint(
        "repro.core.cellcrypto.aead_scheme", "AeadCellScheme", "core.cellcrypto",
        ("encode_cell", "decode_cell", "encode_cells", "decode_cells"),
    ),
    EntryPoint(
        "repro.core.indexcrypto.aead_index", "AeadIndexCodec", "core.indexcrypto",
        ("encode", "decode"),
    ),
    EntryPoint(
        "repro.engine.btree", "BPlusTree", "engine.btree",
        ("insert", "delete", "search", "range_search", "bulk_build"),
    ),
    EntryPoint(
        "repro.engine.indextable", "IndexTable", "engine.indextable",
        ("insert", "delete", "search", "range_search", "bulk_build", "rebuild"),
    ),
    EntryPoint(
        "repro.engine.database", "Database", "engine.database",
        (
            "create_table", "create_index", "insert", "insert_many", "get_row",
            "select_equals", "select_range", "select_prefix", "count",
        ),
    ),
    EntryPoint(
        "repro.durability.manager", "DurableDatabase", "durability",
        ("open", "checkpoint", "create_table", "create_index", "insert"),
    ),
    EntryPoint("repro.durability.wal", "Journal", "durability", ("reset", "append", "scan")),
    EntryPoint("repro.durability.vdisk", "PrefixDisk", "durability", _DISK),
    EntryPoint("repro.durability.vdisk", "MemoryDisk", "durability", _DISK),
    EntryPoint(
        "repro.sharding.keyspace", "ShardedKeyspace", "sharding",
        (
            "open", "create_table", "create_index", "insert", "checkpoint",
            "select_equals", "select_range", "count", "rotate",
        ),
    ),
    EntryPoint("repro.sharding.rotation", "ShardRotation", "sharding", ("run",)),
    EntryPoint("repro.resilience.replica", "MirroredDisk", "resilience", _DISK),
    EntryPoint("repro.observability.metrics", "Counter", "observability", ("inc",)),
    EntryPoint("repro.observability.metrics", "Histogram", "observability", ("observe",)),
    EntryPoint(
        "repro.observability.metrics", "MetricsRegistry", "observability",
        ("counter", "histogram", "timer"),
    ),
    EntryPoint("repro.observability.trace", "Tracer", "observability", ("span", "add_cost")),
    EntryPoint(
        "repro.observability.trace", "_ActiveSpan", "observability",
        ("__enter__", "__exit__"),
    ),
    EntryPoint(
        "repro.observability.timeseries", "TelemetryHub", "observability",
        ("record", "event", "tick", "sample_registry"),
    ),
    EntryPoint(
        "repro.observability.flightrecorder", "FlightRecorder", "observability",
        ("record",),
    ),
    EntryPoint("repro.observability.audit", "AuditLog", "observability", ("emit",)),
    EntryPoint(
        "repro.observability.instrument", "InstrumentedCipher", "observability", _CIPHER
    ),
    EntryPoint(
        "repro.observability.instrument", "InstrumentedAEAD", "observability", _AEAD
    ),
)

LAYERS = ("primitives",) + tuple(dict.fromkeys(entry.layer for entry in ENTRY_POINTS))

#: Per-layer metrics every traced run prints (name -> unit).  The layer
#: times of ``durability``, ``sharding`` and ``resilience`` exist only on
#: ``durable_ingest``, so they go to the run's report line instead.
PER_LAYER_UNITS = {
    "primitives.calls_per_op": "count",
    "primitives.self_ms_per_op": "ms",
    "aead.calls_per_op": "count",
    "aead.self_ms_per_op": "ms",
    "aead.auth_failures": "count",
    "core.cellcrypto.cells_decoded_per_op": "count",
    "core.cellcrypto.cells_per_call": "ratio",
    "core.cellcrypto.self_ms_per_op": "ms",
    "core.indexcrypto.entries_decoded_per_lookup": "count",
    "core.indexcrypto.entries_encoded_per_insert": "count",
    "core.indexcrypto.self_ms_per_op": "ms",
    "engine.btree.nodes_read_per_lookup": "count",
    "engine.btree.entries_decoded_per_insert": "count",
    "engine.btree.self_ms_per_op": "ms",
    "engine.indextable.nodes_read_per_lookup": "count",
    "engine.indextable.entries_decoded_per_insert": "count",
    "engine.indextable.height": "count",
    "engine.database.self_ms_per_op": "ms",
    "engine.database.cells_decoded_per_row_returned": "ratio",
    "durability.bytes_written_per_user_byte": "ratio",
    "durability.syncs_per_insert": "count",
    "durability.replay_records": "count",
    "sharding.shards_touched_per_query": "count",
    "resilience.replica_writes_per_write": "ratio",
    "observability.events_per_op": "count",
    "observability.self_ms_per_op": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class LayerTracer:
    """A span stack that turns nested spans into per-layer self time.

    ``push``/``pop`` bracket one call into a layer.  On ``pop`` the
    span's duration minus its children's is added to the layer's self
    time under the current ``phase``; the duration is added to the
    parent's child time.  Counts go to ``(name, phase)`` buckets.  The
    first ``keep_spans`` spans are also kept as records.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.phase = "idle"
        self.op_id = 0
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.root_s: dict[str, float] = defaultdict(float)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.keep_spans = 0
        self.spans: list[dict] = []
        self._stack: list[list] = []
        self._next_span = 1

    def push(self, layer: str, name: str) -> None:
        parent = self._stack[-1][4] if self._stack else None
        self._stack.append([layer, name, self.clock(), 0.0, self._next_span, parent])
        self._next_span += 1

    def pop(self) -> None:
        layer, name, start, child, span_id, parent = self._stack.pop()
        end = self.clock()
        duration = end - start
        self.self_s[(layer, self.phase)] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.root_s[self.phase] += duration
        if len(self.spans) < self.keep_spans:
            self.spans.append({
                "op": self.op_id, "span": span_id, "parent": parent,
                "layer": layer, "name": name, "start": start, "end": end,
                "phase": self.phase,
            })

    def enclosing(self, layer: str) -> str | None:
        """Name of the innermost open span of ``layer``, if any."""
        for frame in reversed(self._stack):
            if frame[0] == layer:
                return frame[1]
        return None

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(name, self.phase)] += amount

    def total(self, name: str, phases: Iterable[str] | None = OP_PHASES) -> float:
        """Sum of a count over ``phases`` (``None``: every phase)."""
        return sum(
            value for (counted, phase), value in self.counts.items()
            if counted == name and (phases is None or phase in phases)
        )

    def layer_self(self, layer: str, phases: Iterable[str] = OP_PHASES) -> float:
        return sum(self.self_s.get((layer, phase), 0.0) for phase in phases)


def _resolve(module: str, cls: str) -> type:
    return getattr(importlib.import_module(module), cls)


def _cipher_classes() -> list[type]:
    """Block cipher implementations loaded so far.  Wrappers defined next
    to the base class (counting, identity) and outside the primitives
    package (instrumentation) are not implementations."""
    base = _resolve(*CIPHER_BASE)
    found, stack = [], list(base.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro.primitives.") and cls.__module__ != CIPHER_BASE[0]:
            found.append(cls)
    return found


class LayerProbe:
    """Installs and removes the wrappers around every layer entry point."""

    def __init__(self, tracer: LayerTracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else LayerTracer()
        self._saved: list[tuple[type, str, Any]] = []
        self._structures: list[tuple[Any, str]] = []
        from repro.errors import AuthenticationError
        from repro.observability.metrics import REGISTRY

        self._auth_error = AuthenticationError
        self._registry = REGISTRY

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    # -- wrapping ---------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        targets = [
            (cls, EntryPoint(cls.__module__, cls.__name__, "primitives", _CIPHER))
            for cls in _cipher_classes()
        ] + [(_resolve(entry.module, entry.cls), entry) for entry in ENTRY_POINTS]
        for cls, entry in targets:
            for method in entry.methods:
                if method not in cls.__dict__:
                    continue  # inherited: wrapped (or not) where defined
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(original, entry, method))
        for structure, layer in self._structures:
            structure.observer = self._observer(layer)

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()
        for structure, _ in self._structures:
            structure.observer = None

    def watch(self, structures: Iterable[Any]) -> None:
        """Count node reads of these index structures through their public
        ``observer`` hook (replaces the previously watched set)."""
        from repro.engine.btree import BPlusTree

        for structure, _ in self._structures:
            structure.observer = None
        self._structures = [
            (s, "engine.btree" if isinstance(s, BPlusTree) else "engine.indextable")
            for s in structures
        ]
        if self._saved:
            for structure, layer in self._structures:
                structure.observer = self._observer(layer)

    def _observer(self, layer: str) -> Callable[[int], None]:
        tracer = self.tracer

        def observe(_node_id: int) -> None:
            if tracer.enclosing(layer) in ("search", "range_search"):
                tracer.count(layer + ".nodes_read")

        return observe

    def _wrap(self, original: Any, entry: EntryPoint, method: str) -> Any:
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self._wrap(original.__func__, entry, method))
        tracer = self.tracer
        push, pop = tracer.push, tracer.pop
        layer = entry.layer
        before = self._before_hook(entry, method)
        after = self._after_hook(entry, method)
        failure = self._failure_hook(entry, method)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            push(layer, method)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if failure is not None:
                    failure(exc)
                raise
            finally:
                pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", method)
        return wrapper

    # -- counts at the boundaries -----------------------------------------------

    def _before_hook(self, entry: EntryPoint, method: str):
        """Counts that depend on the caller's context or the arguments."""
        tracer = self.tracer
        layer = entry.layer
        count = tracer.count
        if layer == "primitives":
            if method.endswith("_blocks"):
                return lambda args: count("primitives.calls", len(args[1]))
            return lambda args: count("primitives.calls")
        if layer == "aead":
            def aead_calls(args):
                if tracer.enclosing("aead") is None:
                    count("aead.calls", len(args[1]) if method.endswith("_batch") else 1)
            return aead_calls
        if layer == "core.cellcrypto" and method.startswith("decode"):
            def cells(args):
                if tracer.enclosing("core.cellcrypto") is None:
                    count("cells.decoded", len(args[1]) if method == "decode_cells" else 1)
                    count("cells.decode_calls")
            return cells
        if layer == "core.indexcrypto":
            kind = "index.decoded" if method == "decode" else "index.encoded"

            def entries(args):
                count(kind)
                if kind == "index.decoded":
                    for structure in ("engine.btree", "engine.indextable"):
                        if tracer.enclosing(structure) == "insert":
                            count(structure + ".insert_decodes")
            return entries
        if layer in ("engine.btree", "engine.indextable"):
            if method == "insert":
                return lambda args: count(layer + ".inserts")
            if method in ("search", "range_search"):
                return lambda args: count(layer + ".lookups")
            return None
        if layer == "engine.database" and method.startswith("select_"):
            def shard_fanout(args):
                if tracer.enclosing("sharding") in ("select_equals", "select_range"):
                    count("sharding.shard_queries")
            return shard_fanout
        if layer == "sharding" and method in ("select_equals", "select_range"):
            return lambda args: count("sharding.queries")
        if entry.cls == "PrefixDisk":
            if method in ("append", "write"):
                return lambda args: count("durability.bytes_written", len(args[2]))
            if method == "sync":
                return lambda args: count("durability.syncs")
            return None
        if entry.cls == "MemoryDisk" and method in _DISK_MUTATIONS:
            def replica_write(args):
                if tracer.enclosing("resilience") is not None:
                    count("resilience.replica_writes")
            return replica_write
        if layer == "resilience" and method in _DISK_MUTATIONS:
            return lambda args: count("resilience.writes")
        if layer == "observability":
            if entry.cls in ("TelemetryHub", "AuditLog"):
                def sink_event(args):
                    if args[0].enabled:
                        count("observability.events")
                return sink_event
            if entry.cls == "FlightRecorder":
                return lambda args: count("observability.events")
            registry = self._registry

            def registry_event(args):
                if registry.enabled:
                    count("observability.events")
            return registry_event
        return None

    def _after_hook(self, entry: EntryPoint, method: str):
        if entry.layer == "engine.database" and method.startswith("select_"):
            count = self.tracer.count
            return lambda args, result: count("db.rows_returned", len(result))
        return None

    def _failure_hook(self, entry: EntryPoint, method: str):
        if entry.layer == "aead" and method.startswith("decrypt"):
            auth_error = self._auth_error
            count = self.tracer.count

            def auth_failure(exc):
                if isinstance(exc, auth_error):
                    count("aead.auth_failures")
            return auth_failure
        return None

    # -- derived metrics ----------------------------------------------------------

    def metrics(
        self, ops: dict[str, int], op_wall_s: float, indextable_height: int
    ) -> dict[str, float]:
        """Per-layer metrics over the traced operations.

        ``ops`` maps each op phase to its traced operation count and
        ``op_wall_s`` is their measured wall time, both from the caller.
        """
        t = self.tracer
        n_ops = sum(ops.values())
        lookups = ops.get("lookup", 0)
        inserts = ops.get("insert", 0)

        def per(value: float, base: float) -> float:
            return value / base if base else 0.0

        def self_ms(layer: str) -> float:
            return per(t.layer_self(layer) * 1e3, n_ops)

        layer_total = sum(t.layer_self(layer) for layer in LAYERS)
        return {
            "primitives.calls_per_op": per(t.total("primitives.calls"), n_ops),
            "primitives.self_ms_per_op": self_ms("primitives"),
            "aead.calls_per_op": per(t.total("aead.calls"), n_ops),
            "aead.self_ms_per_op": self_ms("aead"),
            "aead.auth_failures": t.total("aead.auth_failures", None),
            "core.cellcrypto.cells_decoded_per_op": per(t.total("cells.decoded"), n_ops),
            "core.cellcrypto.cells_per_call": per(
                t.total("cells.decoded"), t.total("cells.decode_calls")
            ),
            "core.cellcrypto.self_ms_per_op": self_ms("core.cellcrypto"),
            "core.indexcrypto.entries_decoded_per_lookup": per(
                t.total("index.decoded", ("lookup",)), lookups
            ),
            "core.indexcrypto.entries_encoded_per_insert": per(
                t.total("index.encoded", ("insert",)), inserts
            ),
            "core.indexcrypto.self_ms_per_op": self_ms("core.indexcrypto"),
            "engine.btree.nodes_read_per_lookup": per(
                t.total("engine.btree.nodes_read"), t.total("engine.btree.lookups")
            ),
            "engine.btree.entries_decoded_per_insert": per(
                t.total("engine.btree.insert_decodes"), t.total("engine.btree.inserts")
            ),
            "engine.btree.self_ms_per_op": self_ms("engine.btree"),
            "engine.indextable.nodes_read_per_lookup": per(
                t.total("engine.indextable.nodes_read"),
                t.total("engine.indextable.lookups"),
            ),
            "engine.indextable.entries_decoded_per_insert": per(
                t.total("engine.indextable.insert_decodes"),
                t.total("engine.indextable.inserts"),
            ),
            "engine.indextable.height": float(indextable_height),
            "engine.indextable.self_ms_per_op": self_ms("engine.indextable"),
            "engine.database.self_ms_per_op": self_ms("engine.database"),
            "engine.database.cells_decoded_per_row_returned": per(
                t.total("cells.decoded", ("lookup", "range")),
                t.total("db.rows_returned", ("lookup", "range")),
            ),
            "durability.bytes_written_per_user_byte": per(
                t.total("durability.bytes_written", ("insert",)),
                t.total("user.bytes", ("insert",)),
            ),
            "durability.syncs_per_insert": per(
                t.total("durability.syncs", ("insert",)), inserts
            ),
            "durability.self_ms_per_op": self_ms("durability"),
            "durability.checkpoint_ms": per(
                t.root_s.get("checkpoint", 0.0) * 1e3, t.total("checkpoints", ("checkpoint",))
            ),
            "sharding.shards_touched_per_query": per(
                t.total("sharding.shard_queries"), t.total("sharding.queries")
            ),
            "sharding.rotate_self_s": t.layer_self("sharding", ("rotate",)),
            "resilience.replica_writes_per_write": per(
                t.total("resilience.replica_writes", None),
                t.total("resilience.writes", None),
            ),
            "resilience.self_ms_per_op": self_ms("resilience"),
            "observability.events_per_op": per(t.total("observability.events"), n_ops),
            "observability.self_ms_per_op": self_ms("observability"),
            "trace.coverage": per(layer_total, op_wall_s),
        }


def coverage_ok(coverage: float) -> bool:
    return 1.0 - COVERAGE_TOLERANCE <= coverage <= 1.0
