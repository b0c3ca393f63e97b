"""Resilient loading of (possibly tampered) storage images.

The strict loader (:func:`repro.engine.storage.load_database`) fails
closed: the first structural problem aborts the whole restore.  That is
the right default against an active adversary, but a deployment that
*must* come back up — the paper's motivating hospital cannot lose every
patient because one disk sector died — needs the complementary mode:
salvage everything that still authenticates, quarantine everything that
does not, and say precisely which is which.

:func:`load_database_resilient` provides that mode.  Its contract:

* it never raises on corrupted input — every record of the image ends in
  exactly one :class:`RecoveryReport` bucket:

  - ``ok`` — framed, decrypted, verified, and type-decoded;
  - ``quarantined-crypto`` — framed, but a sensitive cell failed the
    scheme's cryptographic verification (eq. 22's ``invalid``);
  - ``quarantined-structural`` — the record itself (or the image region
    holding it) could not be parsed or type-decoded;

* quarantined rows are removed from the loaded database, so every
  surviving read path serves only verified data;
* an index that fails verification — cryptographically, structurally,
  or by disagreeing with the surviving table rows — is rebuilt from the
  surviving authenticated cells (or, with ``rebuild_indexes=False``,
  left registered-but-quarantined, in which case queries degrade to a
  verified full scan via :meth:`~repro.engine.database.Database.indexes_on`).

Note on rebuilds: a rebuilt index re-encrypts its entries with a fresh
codec from the caller's factory.  Deployments whose AEAD nonces are
counters should rotate the index key before re-persisting (see
:mod:`repro.core.rotation`); the quarantined original is discarded, so
within one image no nonce appears twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.btree import BPlusTree
from repro.engine.database import (
    CellCodec,
    Database,
    IndexCodecFactory,
    IndexInfo,
)
from repro.engine.indextable import IndexTable
from repro.engine.integrity import IntegrityIssue
from repro.engine.storage import _MAGIC, _Reader, read_table_schema
from repro.engine.table import Table
from repro.errors import CryptoError, EngineError, StorageFormatError
from repro.observability.audit import AUDIT as _AUDIT

#: Per-record outcomes (the report's vocabulary, shared with docs/tests).
OUTCOME_OK = "ok"
OUTCOME_QUARANTINED_CRYPTO = "quarantined-crypto"
OUTCOME_QUARANTINED_STRUCTURAL = "quarantined-structural"

#: Per-index outcomes.
INDEX_OK = "ok"
INDEX_REBUILT = "rebuilt"
INDEX_QUARANTINED = "quarantined"
INDEX_LOST = "lost"


@dataclass
class RecoveryReport:
    """Everything the resilient loader decided, record by record.

    Issue kinds reuse the vocabulary of
    :class:`~repro.engine.integrity.IntegrityReport`
    (:data:`~repro.engine.integrity.ISSUE_KINDS`), so an eager audit and
    a resilient restore read the same way.
    """

    row_outcomes: dict[str, str] = field(default_factory=dict)
    index_outcomes: dict[str, str] = field(default_factory=dict)
    issues: list[IntegrityIssue] = field(default_factory=list)
    #: Rows declared by the image but unreachable behind a structural
    #: failure (their ids are unknown, so they cannot appear in
    #: ``row_outcomes``).
    rows_lost_structurally: int = 0
    #: False when a structural failure stopped the parse early.
    image_fully_parsed: bool = True

    @property
    def ok(self) -> bool:
        return not self.issues

    def outcome_counts(self) -> dict[str, int]:
        counts = {
            OUTCOME_OK: 0,
            OUTCOME_QUARANTINED_CRYPTO: 0,
            OUTCOME_QUARANTINED_STRUCTURAL: self.rows_lost_structurally,
        }
        for outcome in self.row_outcomes.values():
            counts[outcome] = counts.get(outcome, 0) + 1
        return counts

    @property
    def rows_recovered(self) -> int:
        return self.outcome_counts()[OUTCOME_OK]

    @property
    def rows_quarantined(self) -> int:
        counts = self.outcome_counts()
        return (
            counts[OUTCOME_QUARANTINED_CRYPTO]
            + counts[OUTCOME_QUARANTINED_STRUCTURAL]
        )

    def __str__(self) -> str:
        counts = self.outcome_counts()
        status = "OK" if self.ok else f"{len(self.issues)} issue(s)"
        indexes = ", ".join(
            f"{name}={outcome}" for name, outcome in sorted(self.index_outcomes.items())
        ) or "none"
        return (
            f"recovery: {status} — rows ok={counts[OUTCOME_OK]} "
            f"crypto-quarantined={counts[OUTCOME_QUARANTINED_CRYPTO]} "
            f"structural-quarantined={counts[OUTCOME_QUARANTINED_STRUCTURAL]}; "
            f"indexes: {indexes}"
        )


@dataclass
class RecoveryResult:
    """A salvaged database plus the report explaining its gaps."""

    database: Database
    report: RecoveryReport


@dataclass
class _IndexHeader:
    """The identity of an index, known before its structure parses."""

    name: str
    table: str
    column: str
    kind: str


def load_database_resilient(
    image: bytes,
    cell_codec: CellCodec | None = None,
    index_codec_factory: IndexCodecFactory | None = None,
    rebuild_indexes: bool = True,
) -> RecoveryResult:
    """Salvage a database from a possibly-corrupted storage image.

    Never raises on bad input: structural damage truncates the salvage
    at the last parseable record, cryptographic damage quarantines the
    affected rows, and broken indexes are rebuilt from surviving cells
    (or quarantined when ``rebuild_indexes`` is False).  See the module
    docstring for the exact per-record contract.
    """
    db = Database(cell_codec=cell_codec, index_codec_factory=index_codec_factory)
    report = RecoveryReport()
    reader = _Reader(image)
    # Index headers read so far; value is the parsed structure or None
    # when the body was unreachable.
    headers: list[tuple[_IndexHeader, IndexTable | BPlusTree | None]] = []
    current_header: list[_IndexHeader | None] = [None]

    try:
        _parse_image(reader, db, report, headers, current_header)
    except StorageFormatError as exc:
        report.image_fully_parsed = False
        report.issues.append(IntegrityIssue(
            "image-structural", f"offset {reader.offset}", str(exc)
        ))
        if current_header[0] is not None:
            headers.append((current_header[0], None))
    except (CryptoError, EngineError) as exc:
        # Codec factories and schema plumbing can object to corrupted
        # metadata; that is structural damage from the loader's view.
        report.image_fully_parsed = False
        report.issues.append(IntegrityIssue(
            "image-structural", f"offset {reader.offset}", str(exc)
        ))
        if current_header[0] is not None:
            headers.append((current_header[0], None))
    except Exception as exc:  # pragma: no cover - belt and braces
        report.image_fully_parsed = False
        report.issues.append(IntegrityIssue(
            "image-structural",
            f"offset {reader.offset}",
            f"unexpected {type(exc).__name__}: {exc}",
        ))

    survivors = _crypto_sweep(db, report)
    _settle_indexes(db, report, headers, survivors, rebuild_indexes)
    _emit_recovery_events(report)
    return RecoveryResult(database=db, report=report)


def _emit_recovery_events(report: RecoveryReport) -> None:
    """Mirror quarantine decisions into the security audit log."""
    if not _AUDIT.enabled:
        return
    for where, outcome in sorted(report.row_outcomes.items()):
        if outcome != OUTCOME_OK:
            _AUDIT.emit("recovery.row", where=where, outcome=outcome)
    for name, outcome in sorted(report.index_outcomes.items()):
        _AUDIT.emit("recovery.index", index=name, outcome=outcome)
    _AUDIT.emit(
        "recovery.report",
        rows_recovered=report.rows_recovered,
        rows_quarantined=report.rows_quarantined,
        image_fully_parsed=report.image_fully_parsed,
    )


# ---------------------------------------------------------------------------
# Structural parse (mirrors storage.load_database, but keeps partial work)
# ---------------------------------------------------------------------------

def _parse_image(
    reader: _Reader,
    db: Database,
    report: RecoveryReport,
    headers: list[tuple[_IndexHeader, IndexTable | BPlusTree | None]],
    current_header: list[_IndexHeader | None],
) -> None:
    reader.expect(_MAGIC)
    table_count = reader.read_count("table")
    for _ in range(table_count):
        _parse_table(reader, db, report)
    db._next_table_id = max(
        (db.table(name).table_id for name in db.table_names), default=0
    ) + 1

    index_count = reader.read_count("index")
    for _ in range(index_count):
        header = _IndexHeader(
            name=reader.read_text(),
            table=reader.read_text(),
            column=reader.read_text(),
            kind=reader.read_text(),
        )
        if header.kind not in ("table", "btree"):
            raise StorageFormatError(
                f"unknown index kind {header.kind!r}", offset=reader.offset
            )
        current_header[0] = header
        structure = _parse_index_structure(reader, db, header, report)
        headers.append((header, structure))
        current_header[0] = None

    if reader.remaining:
        report.issues.append(IntegrityIssue(
            "image-structural",
            f"offset {reader.offset}",
            f"{reader.remaining} trailing byte(s) after the last index record",
        ))


def _parse_table(reader: _Reader, db: Database, report: RecoveryReport) -> None:
    schema, table_id = read_table_schema(reader)
    name = schema.name
    table = Table(table_id, schema)
    next_row = reader.read_int()
    row_count = reader.read_count("row")

    registered = name not in db._tables
    if registered:
        db._tables[name] = table
    else:
        report.issues.append(IntegrityIssue(
            "record-structural", name,
            "duplicate table name in image; second copy quarantined",
        ))

    parsed = 0
    try:
        for _ in range(row_count):
            row_id = reader.read_int()
            cells = [reader.read_bytes() for _ in schema.columns]
            if row_id in table._rows:
                report.issues.append(IntegrityIssue(
                    "record-structural", f"{name}(r={row_id})",
                    "replayed (duplicate) row record; copy quarantined",
                ))
                report.row_outcomes[f"{name}(r={row_id})#dup"] = (
                    OUTCOME_QUARANTINED_STRUCTURAL
                )
            else:
                table._rows[row_id] = cells
            parsed += 1
    except StorageFormatError as exc:
        lost = row_count - parsed
        report.rows_lost_structurally += lost
        report.issues.append(IntegrityIssue(
            "record-structural", name,
            f"{lost} row record(s) unreachable behind parse failure: {exc}",
        ))
        raise
    table._next_row = max(
        next_row, max(table._rows, default=-1) + 1
    )
    if not registered:
        # The duplicate's rows are dropped with it.
        for row_id in table._rows:
            report.row_outcomes[f"{name}~dup(r={row_id})"] = (
                OUTCOME_QUARANTINED_STRUCTURAL
            )


def _parse_index_structure(
    reader: _Reader,
    db: Database,
    header: _IndexHeader,
    report: RecoveryReport,
) -> IndexTable | BPlusTree | None:
    """Parse one index body; returns None when its identity is unusable
    (unknown table/column) — the bytes are still consumed."""
    usable = True
    try:
        table = db.table(header.table)
        column_pos = table.schema.column_index(header.column)
        table_id = table.table_id
    except EngineError:
        usable = False
        table_id, column_pos = -1, -1
        report.issues.append(IntegrityIssue(
            "record-structural", f"idx:{header.name}",
            f"references unknown table/column "
            f"{header.table!r}.{header.column!r}",
        ))

    if header.kind == "table":
        structure = _parse_index_table(reader, db, table_id, column_pos)
    else:
        structure = _parse_btree(reader, db, table_id, column_pos)
    return structure if usable else None


def _parse_index_table(
    reader: _Reader, db: Database, table_id: int, column_pos: int
) -> IndexTable:
    from repro.engine.indextable import IndexRow

    index_table_id = reader.read_int()
    codec = db._index_codec_factory(index_table_id, table_id, column_pos)
    index = IndexTable(index_table_id, codec)
    index._root = reader.read_int()
    next_row = reader.read_int()
    row_count = reader.read_count("index row")
    for _ in range(row_count):
        row = IndexRow(
            row_id=reader.read_int(),
            is_leaf=reader.read_int() == 1,
            payload=b"",
        )
        row.left = reader.read_int()
        row.right = reader.read_int()
        row.sibling = reader.read_int()
        row.deleted = reader.read_int() == 1
        row.payload = reader.read_bytes()
        index._rows[row.row_id] = row
    index._next_row = next_row
    return index


def _parse_btree(
    reader: _Reader, db: Database, table_id: int, column_pos: int
) -> BPlusTree:
    from repro.engine.btree import BEntry, BNode

    index_table_id = reader.read_int()
    order = reader.read_int()
    if order < 3:
        raise StorageFormatError(f"implausible tree order {order}")
    codec = db._index_codec_factory(index_table_id, table_id, column_pos)
    tree = BPlusTree(index_table_id, codec, order)
    tree._nodes.clear()
    tree._root = reader.read_int()
    tree._next_node = reader.read_int()
    tree._next_entry_row = reader.read_int()
    node_count = reader.read_count("node")
    for _ in range(node_count):
        node = BNode(node_id=reader.read_int(), is_leaf=reader.read_int() == 1)
        node.next_leaf = reader.read_int()
        child_count = reader.read_count("child")
        node.children = [reader.read_int() for _ in range(child_count)]
        entry_count = reader.read_count("entry")
        node.entries = [
            BEntry(reader.read_int(), reader.read_bytes())
            for _ in range(entry_count)
        ]
        tree._nodes[node.node_id] = node
    return tree


# ---------------------------------------------------------------------------
# Cryptographic sweep
# ---------------------------------------------------------------------------

def _crypto_sweep(
    db: Database, report: RecoveryReport
) -> dict[str, dict[int, list[bytes]]]:
    """Verify every parsed row; quarantine failures; return survivors.

    Survivors map ``table -> row_id -> plaintext cells`` (canonical byte
    encodings after codec verification) — exactly the material index
    rebuilds need.
    """
    survivors: dict[str, dict[int, list[bytes]]] = {}
    for table_name in db.table_names:
        table = db.table(table_name)
        survivors[table_name] = {}
        for row_id in list(table.row_ids):
            where = f"{table_name}(r={row_id})"
            cells = table.get_row(row_id)
            plain: list[bytes] = []
            outcome = OUTCOME_OK
            for position, stored in enumerate(cells):
                if table.schema.columns[position].sensitive:
                    address = table.address(row_id, position)
                    try:
                        plain.append(db.cell_codec.decode_cell(stored, address))
                        continue
                    except CryptoError as exc:
                        outcome = OUTCOME_QUARANTINED_CRYPTO
                        report.issues.append(IntegrityIssue(
                            "cell", f"{where}c={position}", str(exc)
                        ))
                    except Exception as exc:
                        outcome = OUTCOME_QUARANTINED_STRUCTURAL
                        report.issues.append(IntegrityIssue(
                            "record-structural", f"{where}c={position}",
                            f"{type(exc).__name__}: {exc}",
                        ))
                    break
                plain.append(stored)
            if outcome == OUTCOME_OK:
                # The row must also decode at the type layer, or later
                # reads would crash on it.
                try:
                    table.schema.decode_row(plain)
                except Exception as exc:
                    outcome = OUTCOME_QUARANTINED_STRUCTURAL
                    report.issues.append(IntegrityIssue(
                        "record-structural", where,
                        f"type decode failed: {type(exc).__name__}: {exc}",
                    ))
            report.row_outcomes[where] = outcome
            if outcome == OUTCOME_OK:
                survivors[table_name][row_id] = plain
            else:
                del table._rows[row_id]
    return survivors


# ---------------------------------------------------------------------------
# Index verification / rebuild
# ---------------------------------------------------------------------------

def _settle_indexes(
    db: Database,
    report: RecoveryReport,
    headers: list[tuple[_IndexHeader, IndexTable | BPlusTree | None]],
    survivors: dict[str, dict[int, list[bytes]]],
    rebuild_indexes: bool,
) -> None:
    for header, structure in headers:
        name = header.name
        if name in db._indexes:
            report.issues.append(IntegrityIssue(
                "record-structural", f"idx:{name}",
                "duplicate index name in image; second copy dropped",
            ))
            continue
        expected = _expected_pairs(db, header, survivors)
        if expected is None:
            report.index_outcomes[name] = INDEX_LOST
            continue

        if structure is not None:
            _register_index(db, header, structure)
            problem = _index_problem(structure, expected)
            if problem is None:
                report.index_outcomes[name] = INDEX_OK
                continue
            kind_, detail = problem
            report.issues.append(IntegrityIssue(kind_, name, detail))
        else:
            report.issues.append(IntegrityIssue(
                "index-structural", name, "index body unreachable in image",
            ))
            if not rebuild_indexes:
                report.index_outcomes[name] = INDEX_LOST
                continue
            _register_index(
                db, header, _fresh_structure(db, header), quarantined=True
            )

        if rebuild_indexes:
            rebuilt = _fresh_structure(db, header)
            rebuilt.bulk_build(expected)
            db.replace_index_structure(name, rebuilt)
            report.index_outcomes[name] = INDEX_REBUILT
        else:
            db.quarantine_index(name)
            report.index_outcomes[name] = INDEX_QUARANTINED


def _expected_pairs(
    db: Database,
    header: _IndexHeader,
    survivors: dict[str, dict[int, list[bytes]]],
) -> list[tuple[bytes, int]] | None:
    """(value, row_id) pairs the index should hold, from surviving rows."""
    try:
        table = db.table(header.table)
        column_pos = table.schema.column_index(header.column)
    except EngineError:
        return None
    return [
        (cells[column_pos], row_id)
        for row_id, cells in sorted(survivors.get(header.table, {}).items())
    ]


def _index_problem(
    structure: IndexTable | BPlusTree, expected: list[tuple[bytes, int]]
) -> tuple[str, str] | None:
    """None when the index verifies and matches the table, else
    (issue kind, detail)."""
    try:
        structure.verify_all()
        pairs = structure.items()
    except CryptoError as exc:
        return "index-entry", str(exc)
    except EngineError as exc:
        return "index-structural", str(exc)
    except Exception as exc:
        return "index-structural", f"{type(exc).__name__}: {exc}"
    keys = [key for key, _ in pairs]
    if keys != sorted(keys):
        return "index-order", "leaf chain is not key-ordered"
    if sorted(pairs) != sorted(expected):
        return "index-mismatch", (
            f"index holds {len(pairs)} pair(s), "
            f"surviving rows imply {len(expected)}"
        )
    return None


def _fresh_structure(
    db: Database, header: _IndexHeader
) -> IndexTable | BPlusTree:
    table = db.table(header.table)
    column_pos = table.schema.column_index(header.column)
    index_table_id = db._next_table_id
    db._next_table_id += 1
    codec = db._index_codec_factory(index_table_id, table.table_id, column_pos)
    if header.kind == "table":
        return IndexTable(index_table_id, codec)
    return BPlusTree(index_table_id, codec, order=8)


def _register_index(
    db: Database,
    header: _IndexHeader,
    structure: IndexTable | BPlusTree,
    quarantined: bool = False,
) -> IndexInfo:
    info = IndexInfo(
        header.name, header.table, header.column, structure,
        quarantined=quarantined,
    )
    db._indexes[header.name] = info
    db._indexes_by_column.setdefault(
        (header.table, header.column), []
    ).append(info)
    db._next_table_id = max(db._next_table_id, structure.index_table_id + 1)
    return info
