"""Byte-level storage image of a database.

This is the paper's "untrusted storage": "anyone with physical access to
the machine or storage system holding the actual data can copy or modify
it" (Sect. 1).  The image contains exactly what such an adversary sees —
stored cell payloads, plaintext index structure, encrypted index
payloads — and can be re-loaded (possibly after tampering) to model an
offline attack.

The format is a simple deterministic length-prefixed record stream; the
codecs (and therefore keys) are *not* part of the image — loading
requires supplying them again, mirroring the key handover of Sect. 2.1.
"""

from __future__ import annotations

import io
import struct

from repro.engine.btree import BEntry, BNode, BPlusTree
from repro.engine.database import Database, IndexCodecFactory, CellCodec
from repro.engine.indextable import IndexRow, IndexTable
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.errors import EngineError, StorageFormatError
from repro.observability import timed
from repro.observability.audit import AUDIT as _AUDIT
from repro.observability.metrics import REGISTRY as _METRICS
from repro.observability.trace import TRACER as _TRACER

_MAGIC = b"REPRODB1"


def _write_bytes(out: io.BytesIO, data: bytes) -> None:
    out.write(struct.pack(">I", len(data)))
    out.write(data)


def _write_int(out: io.BytesIO, value: int) -> None:
    out.write(struct.pack(">q", value))


def _write_text(out: io.BytesIO, text: str) -> None:
    _write_bytes(out, text.encode("utf-8"))


class _Reader:
    """Cursor over a storage image.

    Every framing failure — truncation, undecodable text, a bad tag —
    raises :class:`~repro.errors.StorageFormatError` carrying the offset
    at which parsing stopped, so that an adversarially modified image
    can never leak a raw ``struct.error`` to callers.
    """

    def __init__(self, data: bytes) -> None:
        self._view = memoryview(data)
        self._offset = 0

    @property
    def offset(self) -> int:
        return self._offset

    @property
    def remaining(self) -> int:
        return len(self._view) - self._offset

    def read_bytes(self) -> bytes:
        if self.remaining < 4:
            raise StorageFormatError(
                "truncated storage image: length prefix cut short",
                offset=self._offset,
            )
        (length,) = struct.unpack_from(">I", self._view, self._offset)
        self._offset += 4
        data = bytes(self._view[self._offset:self._offset + length])
        if len(data) != length:
            raise StorageFormatError(
                f"truncated storage image: {length} payload bytes declared, "
                f"{len(data)} present",
                offset=self._offset,
            )
        self._offset += length
        return data

    def read_int(self) -> int:
        if self.remaining < 8:
            raise StorageFormatError(
                "truncated storage image: integer field cut short",
                offset=self._offset,
            )
        (value,) = struct.unpack_from(">q", self._view, self._offset)
        self._offset += 8
        return value

    def read_count(self, what: str) -> int:
        """An element count: like :meth:`read_int` but sanity-bounded.

        A flipped bit in a count field must not send the loader into a
        near-endless loop or make it fabricate elements, so counts are
        rejected unless the remaining image could plausibly hold that
        many elements (every element occupies at least one byte).
        """
        at = self._offset
        value = self.read_int()
        if value < 0 or value > self.remaining:
            raise StorageFormatError(
                f"implausible {what} count {value} "
                f"with {self.remaining} bytes remaining",
                offset=at,
            )
        return value

    def read_text(self) -> str:
        at = self._offset
        data = self.read_bytes()
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError:
            raise StorageFormatError(
                "undecodable text field in storage image", offset=at
            ) from None

    def expect(self, tag: bytes) -> None:
        got = bytes(self._view[self._offset:self._offset + len(tag)])
        if got != tag:
            raise StorageFormatError(
                f"bad storage image: expected {tag!r}, got {got!r}",
                offset=self._offset,
            )
        self._offset += len(tag)


@timed("storage.dump")
def dump_database(db: Database) -> bytes:
    """Serialise every table and index to a storage image."""
    if _TRACER.enabled:
        with _TRACER.span("storage.dump") as span:
            image = _dump_database(db)
            span.add_cost("bytes_written", len(image))
            return image
    return _dump_database(db)


def _dump_database(db: Database) -> bytes:
    out = io.BytesIO()
    out.write(_MAGIC)

    _write_int(out, len(db.table_names))
    for name in db.table_names:
        table = db.table(name)
        _write_text(out, name)
        _write_int(out, table.table_id)
        _write_int(out, len(table.schema.columns))
        for column in table.schema.columns:
            _write_text(out, column.name)
            _write_text(out, column.type.value)
            _write_int(out, 1 if column.sensitive else 0)
        rows = list(table.scan())
        _write_int(out, table._next_row)
        _write_int(out, len(rows))
        for row_id, cells in rows:
            _write_int(out, row_id)
            for cell in cells:
                _write_bytes(out, cell)

    _write_int(out, len(db.index_names))
    for name in db.index_names:
        info = db.index(name)
        _write_text(out, name)
        _write_text(out, info.table)
        _write_text(out, info.column)
        structure = info.structure
        if isinstance(structure, IndexTable):
            _write_text(out, "table")
            _dump_index_table(out, structure)
        else:
            _write_text(out, "btree")
            _dump_btree(out, structure)
    image = out.getvalue()
    _METRICS.histogram("storage.image_bytes").observe(len(image))
    _AUDIT.emit(
        "storage.dump",
        bytes=len(image),
        tables=len(db.table_names),
        indexes=len(db.index_names),
    )
    return image


def _dump_index_table(out: io.BytesIO, index: IndexTable) -> None:
    _write_int(out, index.index_table_id)
    _write_int(out, index.root_id)
    _write_int(out, index._next_row)
    rows = list(index.raw_rows())
    _write_int(out, len(rows))
    for row in rows:
        _write_int(out, row.row_id)
        _write_int(out, 1 if row.is_leaf else 0)
        _write_int(out, row.left)
        _write_int(out, row.right)
        _write_int(out, row.sibling)
        _write_int(out, 1 if row.deleted else 0)
        _write_bytes(out, row.payload)


def _dump_btree(out: io.BytesIO, tree: BPlusTree) -> None:
    _write_int(out, tree.index_table_id)
    _write_int(out, tree.order)
    _write_int(out, tree.root_id)
    _write_int(out, tree._next_node)
    _write_int(out, tree._next_entry_row)
    nodes = [tree.node(node_id) for node_id in sorted(tree._nodes)]
    _write_int(out, len(nodes))
    for node in nodes:
        _write_int(out, node.node_id)
        _write_int(out, 1 if node.is_leaf else 0)
        _write_int(out, node.next_leaf)
        _write_int(out, len(node.children))
        for child in node.children:
            _write_int(out, child)
        _write_int(out, len(node.entries))
        for entry in node.entries:
            _write_int(out, entry.row_id)
            _write_bytes(out, entry.payload)


@timed("storage.load")
def load_database(
    image: bytes,
    cell_codec: CellCodec | None = None,
    index_codec_factory: IndexCodecFactory | None = None,
) -> Database:
    """Reconstruct a database from a storage image.

    The codecs (i.e. the keys) must be supplied by the caller; the image
    itself contains only what untrusted storage holds.
    """
    if _TRACER.enabled:
        with _TRACER.span("storage.load") as span:
            span.add_cost("bytes_read", len(image))
            return _load_database(image, cell_codec, index_codec_factory)
    return _load_database(image, cell_codec, index_codec_factory)


def _load_database(
    image: bytes,
    cell_codec: CellCodec | None = None,
    index_codec_factory: IndexCodecFactory | None = None,
) -> Database:
    reader = _Reader(image)
    reader.expect(_MAGIC)
    db = Database(cell_codec=cell_codec, index_codec_factory=index_codec_factory)

    table_count = reader.read_count("table")
    for _ in range(table_count):
        _load_table(reader, db)
    db._next_table_id = max(
        (db.table(name).table_id for name in db.table_names), default=0
    ) + 1

    index_count = reader.read_count("index")
    for _ in range(index_count):
        _load_index(reader, db)
    if reader.remaining:
        raise StorageFormatError(
            f"{reader.remaining} trailing byte(s) after the last index record",
            offset=reader.offset,
        )
    _AUDIT.emit(
        "storage.load",
        bytes=len(image),
        tables=len(db.table_names),
        indexes=len(db.index_names),
    )
    return db


def read_table_schema(reader: _Reader) -> tuple[TableSchema, int]:
    """Decode one table header (image or journal); an unknown column type
    or an unusable schema raises :class:`StorageFormatError`."""
    at = reader.offset
    name = reader.read_text()
    table_id = reader.read_int()
    column_count = reader.read_count("column")
    columns = []
    for _ in range(column_count):
        column_name = reader.read_text()
        type_name = reader.read_text()
        try:
            column_type = ColumnType(type_name)
        except ValueError:
            raise StorageFormatError(
                f"unknown column type {type_name!r}", offset=reader.offset
            ) from None
        sensitive = reader.read_int() == 1
        columns.append(Column(column_name, column_type, sensitive))
    try:
        return TableSchema(name, columns), table_id
    except EngineError as exc:
        raise StorageFormatError(f"unusable table schema: {exc}", offset=at) from None


def _load_table(reader: _Reader, db: Database):
    schema, table_id = read_table_schema(reader)
    table = db.create_table(schema)
    table.table_id = table_id
    next_row = reader.read_int()
    row_count = reader.read_count("row")
    for _ in range(row_count):
        at = reader.offset
        row_id = reader.read_int()
        cells = [reader.read_bytes() for _ in schema.columns]
        if row_id in table._rows:
            # A replayed (duplicated) record: ids are allocated once and
            # never reused, so a second occurrence is always corruption.
            raise StorageFormatError(
                f"duplicate row {row_id} in table {schema.name!r}", offset=at
            )
        table._rows[row_id] = cells
    table._next_row = next_row
    return table


def _load_index(reader: _Reader, db: Database):
    name = reader.read_text()
    table_name = reader.read_text()
    column_name = reader.read_text()
    kind = reader.read_text()
    if kind not in ("table", "btree"):
        raise StorageFormatError(
            f"unknown index kind {kind!r}", offset=reader.offset
        )
    table = db.table(table_name)
    column_pos = table.schema.column_index(column_name)
    if kind == "table":
        structure = _load_index_table(reader, db, table.table_id, column_pos)
    else:
        structure = _load_btree(reader, db, table.table_id, column_pos)
    from repro.engine.database import IndexInfo

    info = IndexInfo(name, table_name, column_name, structure)
    db._indexes[name] = info
    db._indexes_by_column.setdefault((table_name, column_name), []).append(info)
    db._next_table_id = max(db._next_table_id, structure.index_table_id + 1)
    return info


def _load_index_table(
    reader: _Reader, db: Database, table_id: int, column_pos: int
) -> IndexTable:
    index_table_id = reader.read_int()
    codec = db._index_codec_factory(index_table_id, table_id, column_pos)
    index = IndexTable(index_table_id, codec)
    index._root = reader.read_int()
    next_row = reader.read_int()
    row_count = reader.read_count("index row")
    for _ in range(row_count):
        at = reader.offset
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
        if row.row_id in index._rows:
            raise StorageFormatError(
                f"duplicate index row {row.row_id}", offset=at
            )
        index._rows[row.row_id] = row
    index._next_row = next_row
    return index


def _load_btree(
    reader: _Reader, db: Database, table_id: int, column_pos: int
) -> BPlusTree:
    index_table_id = reader.read_int()
    order = reader.read_int()
    codec = db._index_codec_factory(index_table_id, table_id, column_pos)
    tree = BPlusTree(index_table_id, codec, order)
    tree._nodes.clear()
    tree._root = reader.read_int()
    tree._next_node = reader.read_int()
    tree._next_entry_row = reader.read_int()
    node_count = reader.read_count("node")
    for _ in range(node_count):
        at = reader.offset
        node = BNode(node_id=reader.read_int(), is_leaf=reader.read_int() == 1)
        node.next_leaf = reader.read_int()
        child_count = reader.read_count("child")
        node.children = [reader.read_int() for _ in range(child_count)]
        entry_count = reader.read_count("entry")
        node.entries = [
            BEntry(reader.read_int(), reader.read_bytes())
            for _ in range(entry_count)
        ]
        if node.node_id in tree._nodes:
            raise StorageFormatError(
                f"duplicate tree node {node.node_id}", offset=at
            )
        tree._nodes[node.node_id] = node
    return tree
