"""Entry-codec protocol shared by the index structures.

The index encryption schemes of [3], [12], and the Sect. 4 fix differ
only in *how a single index entry is stored and verified*; the tree
structures themselves stay plaintext ("preserves the structure of the
index").  The structures in :mod:`repro.engine.indextable` and
:mod:`repro.engine.btree` therefore delegate all payload handling to an
:class:`IndexEntryCodec`, and the concrete schemes live in
:mod:`repro.core.indexcrypto`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class EntryRefs:
    """Everything an entry's surroundings contribute to its encryption.

    * ``index_table`` — the id t_I of the index table itself;
    * ``row_id`` — r_I, the entry's row in the index table (a
      self-reference, Ref_S in the terminology of [12]);
    * ``is_leaf`` — whether the entry sits at the leaf level;
    * ``internal`` — Ref_I, the index-internal references: child row ids
      for inner entries, the right-sibling id for leaf entries
      (paper Sect. 2.4: "left child / right child / next sibling").
    """

    index_table: int
    row_id: int
    is_leaf: bool
    internal: tuple[int, ...]

    def encode_internal(self) -> bytes:
        """Fixed-width byte encoding of Ref_I for MAC/AD binding."""
        parts = [len(self.internal).to_bytes(2, "big")]
        parts += [ref.to_bytes(8, "big", signed=True) for ref in self.internal]
        return b"".join(parts)


class IndexEntryCodec(ABC):
    """Transforms one index entry between logical and stored form.

    The logical form of an entry is the pair ``(key, table_row)`` where
    ``key`` is the encoded attribute value V and ``table_row`` is Ref_T
    (the indexed table's row the value came from; ``None`` for inner
    entries of schemes that do not store it).
    """

    name: str

    @abstractmethod
    def encode(self, key: bytes, table_row: int | None, refs: EntryRefs) -> bytes:
        """Produce the stored payload for an entry."""

    @abstractmethod
    def decode(self, payload: bytes, refs: EntryRefs) -> tuple[bytes, int | None]:
        """Recover (key, table_row) from a stored payload, verifying
        whatever integrity the scheme provides.  Raises
        :class:`~repro.errors.AuthenticationError` on tampering (for
        schemes that can detect it)."""

    def decode_for_query(
        self, payload: bytes, refs: EntryRefs, at_leaf: bool
    ) -> tuple[bytes, int | None]:
        """Decode during query evaluation.

        Default: identical to :meth:`decode`.  The faithful [12]
        reproduction overrides this to skip leaf-level verification,
        reproducing the two pseudo-code bugs of the paper's footnote 1.
        """
        return self.decode(payload, refs)

    def encode_many(
        self, items: Sequence[tuple[bytes, int | None, EntryRefs]]
    ) -> list[bytes]:
        """Batch encode: equal to ``[self.encode(*item) for item in items]``.

        Byte-for-byte, in list order — schemes that draw nonces consume
        them in exactly the order the loop would.  Overridden by schemes
        with a batchable crypto core.
        """
        return [self.encode(key, table_row, refs) for key, table_row, refs in items]

    def decode_many(
        self, items: Sequence[tuple[bytes, EntryRefs]]
    ) -> list[tuple[bytes, int | None]]:
        """Batch decode: equal to ``[self.decode(p, r) for p, r in items]``
        on success; any verification failure raises for the whole batch."""
        return [self.decode(payload, refs) for payload, refs in items]


class PlainEntryCodec(IndexEntryCodec):
    """No encryption: payload is a transparent (key, table_row) encoding.

    The baseline every encrypted scheme is benchmarked against.
    """

    name = "plain"

    def encode(self, key: bytes, table_row: int | None, refs: EntryRefs) -> bytes:
        row = -1 if table_row is None else table_row
        return row.to_bytes(8, "big", signed=True) + key

    def decode(self, payload: bytes, refs: EntryRefs) -> tuple[bytes, int | None]:
        row = int.from_bytes(payload[:8], "big", signed=True)
        return payload[8:], None if row < 0 else row
