"""Batched decode paths against the per-row and per-entry loops they replaced.

Index-backed queries and the full scan decode their rows through one
``CellCodec.decode_cells`` batch; the no-index scan filter decodes each
hit row through a batch of one.  The reference here is the per-row loop
— each hit's cells decoded one by one — installed by monkeypatching
``Database._decode_rows``.  In every campaign configuration, under both
cipher backends, every query kind must return the same rows (or raise
the same error), make the same per-query Sect. 4 formula check and
charge the same ``cipher.*``/``aead.*`` counters as that loop.

Each comparison runs twice.  With auditing off the scheme's own
``decode_cells`` (and, for the AEAD schemes, ``decrypt_batch``) runs,
which is the production path; the test checks that its batches are
wide.  With auditing on, the auditing wrapper decodes cell by cell, and
the canonical audit JSONL must also equal the loop's.

A query that raises is the exception: the batch decodes every hit row
before the first one fails, where the loop stops at that row, so its
cipher count and audit events cover more rows.  Only the [3]
XOR-Scheme, whose typed reads are lossy by design, raises here.

The B⁺-tree's whole-node decode and encode go through the index codec's
batch methods; inserts, deletes and updates through them must leave the
same image, cipher counts and audit log as the per-entry loop.
"""

import hashlib

import pytest

from repro import observability
from repro.core.encrypted_db import EncryptedDatabase
from repro.core.indexcrypto.aead_index import AeadIndexCodec
from repro.engine.database import Database
from repro.engine.query import (
    AtLeastQuery,
    AtMostQuery,
    PointQuery,
    PrefixQuery,
    RangeQuery,
    ScanQuery,
)
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import dump_database
from repro.errors import AuthenticationError
from repro.observability.audit import (
    AUDIT,
    AuditingCellCodec,
    AuditingIndexCodec,
    canonical_lines,
)
from repro.observability.metrics import REGISTRY
from repro.observability.profile import build_query_profiles
from repro.observability.trace import TRACER
from repro.robustness.campaign import default_campaign_configs

KEY = bytes(range(32))
ROWS = 14
SCHEMA = TableSchema(
    "t",
    [
        Column("id", ColumnType.INT),
        Column("name", ColumnType.TEXT),
        Column("note", ColumnType.TEXT),
        Column("flag", ColumnType.BOOL, sensitive=False),
    ],
)

#: Every query kind; ``note`` has no index, so its queries take the
#: verified scan filter.
QUERIES = [
    PointQuery("t", "id", 5),
    PointQuery("t", "name", "name-07"),
    RangeQuery("t", "id", 2, 9),
    PrefixQuery("t", "name", "name-1"),
    AtLeastQuery("t", "id", 8),
    AtMostQuery("t", "name", "name-04"),
    ScanQuery("t"),
    PointQuery("t", "note", "note-03"),
    RangeQuery("t", "note", "note-02", "note-10"),
    PrefixQuery("t", "note", "note-1"),
    AtLeastQuery("t", "note", "note-12"),
    AtMostQuery("t", "note", "note-01"),
]

CASES = [
    (label, config, backend)
    for label, config in default_campaign_configs()
    for backend in ("pure", "optimized")
]


def _loop_row(db, table, row_id):
    cells = [
        db._plain_cell(table, row_id, pos) for pos in range(len(table.schema.columns))
    ]
    return table.schema.decode_row(cells)


def _loop_decode_rows(self, table, row_ids):
    return [(row_id, _loop_row(self, table, row_id)) for row_id in row_ids]


def _crypto_counters() -> dict[str, int]:
    return {
        name: value
        for name, value in REGISTRY.counters().items()
        if name.startswith(("cipher.", "aead."))
    }


def _delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


@pytest.fixture(autouse=True)
def _clean_observability():
    AUDIT.reset()
    observability.disable()
    observability.reset()
    yield
    AUDIT.reset()
    observability.disable()
    observability.reset()


def _build(config, backend) -> EncryptedDatabase:
    db = EncryptedDatabase(KEY, config.with_(backend=backend))
    db.create_table(SCHEMA)
    db.insert_many(
        "t",
        [[i, f"name-{i:02d}", f"note-{i:02d}", i % 3 == 0] for i in range(ROWS)],
    )
    db.create_index("t_id", "t", "id", kind="btree", order=4)
    db.create_index("t_name", "t", "name", kind="table")
    return db


def _outcome(query, db):
    try:
        return "rows", query.execute(db).rows
    except Exception as exc:  # the [3] XOR-Scheme has no typed reads
        return "error", (type(exc).__name__, str(exc))


def _run(config, backend, monkeypatch, loop: bool, audit: bool):
    """Per query: outcome, formula checks, crypto counter deltas and audit
    events (without sequence numbers); the cell counts of the query's
    decode batches; plus the whole run's canonical audit lines."""
    AUDIT.reset()
    observability.reset()
    if audit:
        AUDIT.enable(timestamps=False)
    observability.enable()
    db = _build(config, backend)
    assert isinstance(db.cell_codec, AuditingCellCodec) == audit
    if loop:
        monkeypatch.setattr(Database, "_decode_rows", _loop_decode_rows)
    per_query = []
    widths = []
    try:
        for query in QUERIES:
            TRACER.reset()
            seen = len(AUDIT.events())
            before = _crypto_counters()
            outcome = _outcome(query, db)
            counters = _delta(before, _crypto_counters())
            spans = TRACER.finished()
            checks = [
                profile.formula_check() for profile in build_query_profiles(spans)
            ]
            events = [
                {k: v for k, v in event.items() if k != "seq"}
                for event in AUDIT.events()[seen:]
            ]
            per_query.append((outcome, checks, counters, events))
            widths.append(
                [
                    span.costs["cells"]
                    for span in spans
                    if span.name == "cell.decrypt_batch"
                ]
            )
        return per_query, widths, canonical_lines(AUDIT.events())
    finally:
        monkeypatch.undo()
        AUDIT.reset()
        observability.disable()
        observability.reset()


def _compare(label, batched, looped) -> int:
    """Assert per-query parity; return how many queries raised."""
    failed = 0
    for query, (outcome, checks, counters, events), expected in zip(
        QUERIES, batched, looped
    ):
        assert outcome == expected[0], query
        assert len(checks) == 1 and checks[0]["ok"] == expected[1][0]["ok"], query
        if outcome[0] == "error":
            failed += 1
            continue
        assert checks == expected[1], query
        assert counters == expected[2], query
        assert events == expected[3], query
    if failed:
        assert label == "[3] XOR-Scheme"
    return failed


@pytest.mark.parametrize(
    "label, config, backend", CASES, ids=[f"{lbl}-{b}" for lbl, _, b in CASES]
)
def test_batched_queries_match_the_per_row_loop(label, config, backend, monkeypatch):
    batched, widths, _ = _run(config, backend, monkeypatch, loop=False, audit=False)
    looped, loop_widths, _ = _run(config, backend, monkeypatch, loop=True, audit=False)
    _compare(label, batched, looped)
    assert not any(loop_widths)
    # The scheme's own decode_cells ran (the AEAD schemes hand it whole to
    # decrypt_batch): index-backed queries and the scan with all sensitive
    # cells of their hit rows, 3 per row, in one call; the scan filter
    # with one call per hit row.
    for query, (outcome, *_), width in zip(QUERIES, batched, widths):
        if outcome[0] == "rows":
            hits = len(outcome[1])
            if getattr(query, "column", None) == "note":
                assert width == [3] * hits, query
            else:
                assert width == ([3 * hits] if hits else []), query
    assert max(map(max, filter(None, widths))) >= 3 * 8


@pytest.mark.parametrize(
    "label, config, backend", CASES, ids=[f"{lbl}-{b}" for lbl, _, b in CASES]
)
def test_batched_queries_leave_the_loops_audit_log(
    label, config, backend, monkeypatch
):
    batched, _, batched_audit = _run(
        config, backend, monkeypatch, loop=False, audit=True
    )
    looped, _, looped_audit = _run(config, backend, monkeypatch, loop=True, audit=True)
    if not _compare(label, batched, looped):
        assert batched_audit == looped_audit
    assert any('"cell.decrypt"' in line for line in batched_audit)


@pytest.mark.parametrize("backend", ["pure", "optimized"])
def test_queries_answer_like_a_plaintext_model(backend):
    config = dict(default_campaign_configs())["fixed AEAD (EAX)"]
    db = _build(config, backend)
    model = {i: [i, f"name-{i:02d}", f"note-{i:02d}", i % 3 == 0] for i in range(ROWS)}
    assert [row for _, row in db.select_range("t", "id", 2, 9)] == [
        model[i] for i in range(2, 10)
    ]
    scanned = db.select_range("t", "note", "note-02", "note-10")
    assert sorted(row[0] for _, row in scanned) == list(range(2, 11))
    assert [row for _, row in db.scan("t")] == [model[i] for i in range(ROWS)]
    assert db.select_equals("t", "note", "nope") == []


def test_tampered_cell_mid_range_raises_the_typed_error():
    config = dict(default_campaign_configs())["fixed AEAD (EAX)"]
    for backend in ("pure", "optimized"):
        for loop in (False, True):
            db = _build(config, backend)
            table = db.table("t")
            stored = bytearray(table.get_cell(5, 2))
            stored[-1] ^= 1
            table.set_cell(5, 2, bytes(stored))
            with pytest.MonkeyPatch.context() as patch:
                if loop:
                    patch.setattr(Database, "_decode_rows", _loop_decode_rows)
                with pytest.raises(AuthenticationError, match="^invalid$"):
                    db.select_range("t", "id", 2, 9)
                # Rows on either side of the tampered one still read.
                assert len(db.select_range("t", "id", 6, 9)) == 4


# -- B⁺-tree node codec ---------------------------------------------------------


def _loop_encode_many(self, items):
    return [self.encode(key, table_row, refs) for key, table_row, refs in items]


def _loop_decode_many(self, items):
    return [self.decode(payload, refs) for payload, refs in items]


def _mutated_image(config, backend, audit: bool):
    """Image hash, crypto counters and audit lines after inserts, deletes
    and an update that split, merge and re-encode B⁺-tree nodes."""
    AUDIT.reset()
    observability.reset()
    if audit:
        AUDIT.enable(timestamps=False)
    observability.enable()
    try:
        db = _build(config, backend)
        assert isinstance(db.index("t_id").structure.codec, AuditingIndexCodec) == audit
        order = [(i * 7) % 40 + ROWS for i in range(40)]
        for i in order:
            db.insert("t", [i, f"name-{i:02d}", f"note-{i:02d}", False])
        for row_id in sorted(db.table("t").row_ids)[::3]:
            db.delete_row("t", row_id)
        db.update_value("t", 1, "id", 99)
        db.index("t_id").structure.verify_all()
        image = hashlib.sha256(dump_database(db)).hexdigest()
        return image, _crypto_counters(), canonical_lines(AUDIT.events())
    finally:
        AUDIT.reset()
        observability.disable()
        observability.reset()


def _spy(monkeypatch, name: str, widths: list[int]) -> None:
    real = getattr(AeadIndexCodec, name)

    def spy(self, items):
        items = list(items)
        widths.append(len(items))
        return real(self, items)

    monkeypatch.setattr(AeadIndexCodec, name, spy)


@pytest.mark.parametrize("audit", [False, True], ids=["plain", "audited"])
@pytest.mark.parametrize("label", ["fixed AEAD (EAX)", "fixed AEAD (OCB)"])
def test_btree_batch_node_codec_matches_the_loop(label, audit, monkeypatch):
    config = dict(default_campaign_configs())[label]
    decodes: list[int] = []
    encodes: list[int] = []
    _spy(monkeypatch, "decode_many", decodes)
    _spy(monkeypatch, "encode_many", encodes)
    batched = _mutated_image(config, "optimized", audit)
    # Unaudited, the AEAD codec's own batch methods decode and encode whole
    # nodes; the auditing wrapper decodes entry by entry.
    assert max(encodes) > 1
    assert (max(decodes, default=0) > 1) != audit
    monkeypatch.setattr(AeadIndexCodec, "encode_many", _loop_encode_many)
    monkeypatch.setattr(AeadIndexCodec, "decode_many", _loop_decode_many)
    assert batched == _mutated_image(config, "optimized", audit)


def test_btree_tampered_entry_fails_node_decode_with_the_typed_error():
    config = dict(default_campaign_configs())["fixed AEAD (EAX)"]
    db = _build(config, "optimized")
    tree = db.index("t_id").structure
    node_id, slot, entry = next(iter(tree.raw_entries()))
    payload = bytearray(entry.payload)
    payload[-1] ^= 1
    tree.tamper(node_id, slot, bytes(payload))
    with pytest.raises(AuthenticationError, match="^invalid$"):
        tree._decode_node(tree.node(node_id))
