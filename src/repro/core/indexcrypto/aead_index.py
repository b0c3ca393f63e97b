"""The fixed index encryption scheme (paper eqs. 25–26).

For an index entry holding value V from cell (t, r, c), stored at row
r_I of index table t_I:

    Ref_T = r
    Ref_I = index-internal references (children / next sibling)
    Ref_S = (t_I, t, c, r_I)

"On encryption a unique nonce N is generated, and we store
(Ref_I, (N, C, T)) with (C, T) = AEAD-Enc_k(N, (V, Ref_T), (Ref_S, Ref_I))."

The plaintext is the pair (V, Ref_T) — the table reference is encrypted,
preventing linkage leakage — while the entry's own position Ref_S and
the structure around it Ref_I are associated data: authenticated, never
stored.  "Note that t_I, t, c are fixed for a given index" — they are
constructor parameters here — "and r_I is also known" (it arrives via
:class:`~repro.engine.codec.EntryRefs`).
"""

from __future__ import annotations

import struct
from collections.abc import Sequence

from repro.aead.base import AEAD, StoredEntry
from repro.engine.codec import EntryRefs, IndexEntryCodec
from repro.errors import AuthenticationError

_ROW_WIDTH = 8


class AeadIndexCodec(IndexEntryCodec):
    """AEAD-encrypted index entries with (Ref_S, Ref_I) as header."""

    name = "aead-index"

    def __init__(
        self,
        aead: AEAD,
        nonce_source,
        indexed_table: int,
        indexed_column: int,
    ) -> None:
        self._aead = aead
        self._nonces = nonce_source
        self._table = indexed_table
        self._column = indexed_column

    @property
    def aead(self) -> AEAD:
        return self._aead

    def associated_data(self, refs: EntryRefs) -> bytes:
        """(Ref_S, Ref_I) with Ref_S = (t_I, t, c, r_I) — eq. (25)."""
        ref_s = struct.pack(
            ">qqqq", refs.index_table, self._table, self._column, refs.row_id
        )
        return ref_s + refs.encode_internal()

    def encode(self, key: bytes, table_row: int | None, refs: EntryRefs) -> bytes:
        nonce = self._nonces.next()
        ciphertext, tag = self._aead.encrypt(
            nonce, _plaintext(key, table_row), self.associated_data(refs)
        )
        return StoredEntry(nonce, ciphertext, tag).to_bytes()

    def decode(self, payload: bytes, refs: EntryRefs) -> tuple[bytes, int | None]:
        entry = _parse(payload)
        return _logical(
            self._aead.decrypt(
                entry.nonce, entry.ciphertext, entry.tag, self.associated_data(refs)
            )
        )

    def encode_many(
        self, items: Sequence[tuple[bytes, int | None, EntryRefs]]
    ) -> list[bytes]:
        # Nonces are drawn in list order, as the per-entry loop draws them.
        triples = [
            (
                self._nonces.next(),
                _plaintext(key, table_row),
                self.associated_data(refs),
            )
            for key, table_row, refs in items
        ]
        return [
            StoredEntry(nonce, ciphertext, tag).to_bytes()
            for (nonce, _, _), (ciphertext, tag) in zip(
                triples, self._aead.encrypt_batch(triples)
            )
        ]

    def decode_many(
        self, items: Sequence[tuple[bytes, EntryRefs]]
    ) -> list[tuple[bytes, int | None]]:
        quads = []
        for payload, refs in items:
            entry = _parse(payload)
            quads.append(
                (entry.nonce, entry.ciphertext, entry.tag, self.associated_data(refs))
            )
        return [_logical(plaintext) for plaintext in self._aead.decrypt_batch(quads)]

    def storage_overhead(self) -> int:
        """Per-entry overhead octets: nonce + tag (Sect. 4 metric)."""
        return self._nonces.size + self._aead.tag_size


def _plaintext(key: bytes, table_row: int | None) -> bytes:
    """The encrypted pair (V, Ref_T): Ref_T first, -1 for inner entries."""
    row = -1 if table_row is None else table_row
    return row.to_bytes(_ROW_WIDTH, "big", signed=True) + key


def _parse(payload: bytes) -> StoredEntry:
    try:
        return StoredEntry.from_bytes(payload)
    except ValueError:
        raise AuthenticationError("invalid") from None


def _logical(plaintext: bytes) -> tuple[bytes, int | None]:
    if len(plaintext) < _ROW_WIDTH:
        raise AuthenticationError("invalid")
    row = int.from_bytes(plaintext[:_ROW_WIDTH], "big", signed=True)
    return plaintext[_ROW_WIDTH:], None if row < 0 else row
