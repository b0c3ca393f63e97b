"""Optimized pure-python AES: precomputed T-tables over packed 32-bit words.

Same permutation as :class:`repro.primitives.aes.AES`, computed differently.
The reference implementation applies SubBytes / ShiftRows / MixColumns as
separate byte-level passes; here each round collapses into four table
lookups and XORs per state column (the classic T-table formulation from
the Rijndael submission).  The tables are derived at import time from the
same GF(2^8) arithmetic and S-box the reference uses — nothing opaque is
embedded — and byte-for-byte equivalence against the reference cipher is
pinned by the backend-parity tests and the CI parity matrix.

State layout: the 16-byte block is four 32-bit words, one per column,
packed big-endian (row 0 in the high byte).  Word ``c`` of the round
transform reads row ``r`` from state word ``(c + r) % 4`` (ShiftRows) and
folds the MixColumns matrix through the tables:

    T0[x] = (2s, s, s, 3s)   T1[x] = (3s, 2s, s, s)
    T2[x] = (s, 3s, 2s, s)   T3[x] = (s, s, 3s, 2s)     with s = SBOX[x]

Decryption uses the equivalent inverse cipher: InvMixColumns folded into
TD tables plus round keys transformed by InvMixColumns.  Key schedules
come from the shared cache in ``repro.primitives.aes`` (one expansion per
distinct key across both backends) and the packed word schedules derived
from them are cached here as well.

Batches of two or more blocks take a second, *wide* kernel instead.  A
chunk of up to :data:`WIDE_CHUNK` blocks is packed into one Python int
(block ``j`` of the chunk in bytes ``16j .. 16j+15``, big-endian) and
each round costs a fixed number of C-level operations whatever the
chunk width:

* SubBytes is one ``bytes.translate`` through the S-box;
* ShiftRows is seven mask-and-shift terms, one per byte distance a row
  moves within its block;
* MixColumns is ``a ^ t ^ xtime(a ^ rot(a))`` per column, with ``rot``
  a byte rotation inside each 32-bit column lane, ``t`` the XOR of the
  column's four bytes and ``xtime`` a masked shift;
* AddRoundKey XORs the round key repeated across the chunk.

The per-round masks are key-independent module constants at the full
chunk width.  The repeated round keys are built on the first wide call
under a key and cached beside its word schedules, sized to the next
power of two at or above the widest batch seen so far (at most a
chunk), so keys that only ever see narrow batches stay small.  Only the
16 most recently used keys keep theirs (:data:`_MAX_WIDE_SCHEDULES`).
A narrower chunk shifts both right, which costs time proportional to
the narrower width.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence

from repro.errors import KeyLengthError
from repro.primitives.aes import (
    _INV_SBOX,
    _ROUNDS_BY_KEY_LENGTH,
    _SBOX,
    _gf_multiply,
    expand_key,
)
from repro.primitives.blockcipher import BlockCipher


def _build_encrypt_tables() -> tuple[tuple[int, ...], ...]:
    t0, t1, t2, t3 = [], [], [], []
    for x in range(256):
        s = _SBOX[x]
        s2 = _gf_multiply(s, 2)
        s3 = s2 ^ s
        t0.append(s2 << 24 | s << 16 | s << 8 | s3)
        t1.append(s3 << 24 | s2 << 16 | s << 8 | s)
        t2.append(s << 24 | s3 << 16 | s2 << 8 | s)
        t3.append(s << 24 | s << 16 | s3 << 8 | s2)
    return tuple(t0), tuple(t1), tuple(t2), tuple(t3)


def _build_decrypt_tables() -> tuple[tuple[int, ...], ...]:
    d0, d1, d2, d3 = [], [], [], []
    for x in range(256):
        s = _INV_SBOX[x]
        e9 = _gf_multiply(s, 9)
        e11 = _gf_multiply(s, 11)
        e13 = _gf_multiply(s, 13)
        e14 = _gf_multiply(s, 14)
        d0.append(e14 << 24 | e9 << 16 | e13 << 8 | e11)
        d1.append(e11 << 24 | e14 << 16 | e9 << 8 | e13)
        d2.append(e13 << 24 | e11 << 16 | e14 << 8 | e9)
        d3.append(e9 << 24 | e13 << 16 | e11 << 8 | e14)
    return tuple(d0), tuple(d1), tuple(d2), tuple(d3)


_T0, _T1, _T2, _T3 = _build_encrypt_tables()
_D0, _D1, _D2, _D3 = _build_decrypt_tables()


def _inv_mix_word(flat: Sequence[int], c: int) -> int:
    """InvMixColumns applied to column ``c`` of a flat 16-byte round key."""
    a0, a1, a2, a3 = flat[4 * c : 4 * c + 4]
    b0 = (
        _gf_multiply(a0, 14)
        ^ _gf_multiply(a1, 11)
        ^ _gf_multiply(a2, 13)
        ^ _gf_multiply(a3, 9)
    )
    b1 = (
        _gf_multiply(a0, 9)
        ^ _gf_multiply(a1, 14)
        ^ _gf_multiply(a2, 11)
        ^ _gf_multiply(a3, 13)
    )
    b2 = (
        _gf_multiply(a0, 13)
        ^ _gf_multiply(a1, 9)
        ^ _gf_multiply(a2, 14)
        ^ _gf_multiply(a3, 11)
    )
    b3 = (
        _gf_multiply(a0, 11)
        ^ _gf_multiply(a1, 13)
        ^ _gf_multiply(a2, 9)
        ^ _gf_multiply(a3, 14)
    )
    return b0 << 24 | b1 << 16 | b2 << 8 | b3


def _pack_word(flat: Sequence[int], c: int) -> int:
    return (
        flat[4 * c] << 24
        | flat[4 * c + 1] << 16
        | flat[4 * c + 2] << 8
        | flat[4 * c + 3]
    )


_MAX_CACHED_WORD_SCHEDULES = 128


class _Schedules:
    """Everything derived from one key: the packed (encrypt,
    equivalent-inverse) word schedules and, once a wide batch has run
    under the key, ``wide``: a width in blocks and the round keys
    repeated that many times, sized to the widest batch seen so far."""

    __slots__ = ("enc", "dec", "wide")

    def __init__(self, enc: tuple[int, ...], dec: tuple[int, ...]) -> None:
        self.enc = enc
        self.dec = dec
        self.wide: tuple[int, tuple[int, ...]] = (0, ())


_word_cache: OrderedDict[bytes, _Schedules] = OrderedDict()
_word_lock = threading.Lock()


def _word_schedules(key: bytes) -> _Schedules:
    """Packed word schedules for ``key``.

    Derived from the shared byte schedule in ``repro.primitives.aes`` —
    deriving does not count as a second key expansion — and cached here so
    repeat constructions are dictionary hits.  Every instance over one key
    shares the returned record, so the wide round keys are built once per
    key, not once per instance.
    """
    cache_key = bytes(key)
    with _word_lock:
        cached = _word_cache.get(cache_key)
        if cached is not None:
            _word_cache.move_to_end(cache_key)
            return cached
    round_keys = expand_key(cache_key)
    rounds = len(round_keys) - 1
    enc = [_pack_word(flat, c) for flat in round_keys for c in range(4)]
    dec: list[int] = [_pack_word(round_keys[rounds], c) for c in range(4)]
    for r in range(1, rounds):
        flat = round_keys[rounds - r]
        dec.extend(_inv_mix_word(flat, c) for c in range(4))
    dec.extend(_pack_word(round_keys[0], c) for c in range(4))
    schedules = _Schedules(tuple(enc), tuple(dec))
    with _word_lock:
        _word_cache[cache_key] = schedules
        while len(_word_cache) > _MAX_CACHED_WORD_SCHEDULES:
            _word_cache.popitem(last=False)
    return schedules


#: Blocks per wide-kernel chunk.
WIDE_CHUNK = 256


def _repeat(pattern: bytes, blocks: int = WIDE_CHUNK) -> int:
    """A 16-byte pattern repeated ``blocks`` times, as one int."""
    return int.from_bytes(pattern * blocks, "big")


def _shift_rows_masks() -> list[int]:
    """Destination masks of ShiftRows for byte distances 0, +4, +8, +12,
    -4, -8 and -12.

    Byte ``4c + r`` of a block (row ``r``, column ``c``) receives byte
    ``4((c + r) % 4) + r``; the distance between the two takes one of
    these seven values, and each value is one mask-and-shift term.
    """
    masks: dict[int, bytearray] = {}
    for c in range(4):
        for r in range(4):
            dst, src = 4 * c + r, 4 * ((c + r) % 4) + r
            masks.setdefault(src - dst, bytearray(16))[dst] = 0xFF
    return [_repeat(bytes(masks[d])) for d in (0, 4, 8, 12, -4, -8, -12)]


#: The seven ShiftRows masks, then the MixColumns lane masks and the
#: per-byte high bit.
_WIDE_MASKS = (
    *_shift_rows_masks(),
    _repeat(b"\xff\xff\xff\x00" * 4),
    _repeat(b"\x00\x00\x00\xff" * 4),
    _repeat(b"\xff\xff\x00\x00" * 4),
    _repeat(b"\x00\x00\xff\xff" * 4),
    _repeat(b"\x80" * 16),
)


def _wide_round_keys(enc: tuple[int, ...], blocks: int) -> tuple[int, ...]:
    """Each round key of a packed word schedule repeated ``blocks`` times."""
    raw = b"".join(word.to_bytes(4, "big") for word in enc)
    return tuple(_repeat(raw[i : i + 16], blocks) for i in range(0, len(raw), 16))


#: Keys whose wide round keys are kept at once (up to 45 KB each for
#: AES-128, 61 KB for AES-256), most recently used last.  Bounded apart
#: from the word-schedule cache: live instances keep their records, so
#: without this a process running wide batches under many keys would hold
#: every one of them.  Rebuilding an evicted key's wide round keys costs
#: about a quarter of encrypting one full chunk.
_MAX_WIDE_SCHEDULES = 16
_wide_owners: OrderedDict[_Schedules, None] = OrderedDict()


def _wide_schedule(schedules: _Schedules, width: int) -> tuple[int, tuple[int, ...]]:
    """The record's wide round keys, grown to cover ``width`` blocks."""
    key_blocks, keys = schedules.wide
    if key_blocks < min(width, WIDE_CHUNK):
        # Grow to the next power of two, so a key that only ever sees
        # narrow batches never holds chunk-wide ints.  One tuple holds
        # width and keys, so a concurrent reader sees a matching pair.
        key_blocks = min(1 << (width - 1).bit_length(), WIDE_CHUNK)
        keys = _wide_round_keys(schedules.enc, key_blocks)
        schedules.wide = (key_blocks, keys)
    with _word_lock:
        _wide_owners[schedules] = None
        _wide_owners.move_to_end(schedules)
        while len(_wide_owners) > _MAX_WIDE_SCHEDULES:
            evicted, _ = _wide_owners.popitem(last=False)
            evicted.wide = (0, ())
    return key_blocks, keys


def _encrypt_wide(
    blocks: Sequence[bytes],
    keys: Sequence[int],
    key_blocks: int,
    masks: Sequence[int] = _WIDE_MASKS,
    sb: bytes = _SBOX,
    from_bytes=int.from_bytes,
) -> list[bytes]:
    """Encrypt 1..WIDE_CHUNK blocks as one packed int, round by round.

    ``keys`` are the round keys repeated ``key_blocks`` >= len(blocks)
    times; both they and the chunk-wide masks are shifted down to width.
    """
    n = 16 * len(blocks)
    # Lists, not tuples: a tuple built from a generator is resized to its
    # final length, and on release it parks in that length's free list,
    # which this code never allocates from; up to 2 000 pile up there
    # between full garbage collections.
    if key_blocks * 16 != n:
        cut = 8 * (16 * key_blocks - n)
        keys = [k >> cut for k in keys]
    if n != 16 * WIDE_CHUNK:
        cut = 8 * (16 * WIDE_CHUNK - n)
        masks = [m >> cut for m in masks]
    m0, m4, m8, m12, mn4, mn8, mn12, hi3, lo1, hi2, lo2, h80 = masks
    last = len(keys) - 1
    x = from_bytes(b"".join(blocks), "big") ^ keys[0]
    for i in range(1, last + 1):
        x = from_bytes(x.to_bytes(n, "big").translate(sb), "big")
        y = (x & m0) | ((x << 32) & m4) | ((x << 64) & m8) | ((x << 96) & m12)
        x = y | ((x >> 32) & mn4) | ((x >> 64) & mn8) | ((x >> 96) & mn12)
        if i < last:
            # MixColumns: with u = a ^ rot(a) per column lane and t the XOR
            # of the lane's four bytes, output byte i is a_i ^ t ^ xtime(u_i).
            u = x ^ ((x << 8) & hi3) ^ ((x >> 24) & lo1)
            t = u ^ ((u << 16) & hi2) ^ ((u >> 16) & lo2)
            h = u & h80
            x ^= t ^ ((u ^ h) << 1) ^ ((h >> 7) * 0x1B)
        x ^= keys[i]
    out = x.to_bytes(n, "big")
    return [out[i : i + 16] for i in range(0, n, 16)]


def _encrypt_words(
    s0: int,
    s1: int,
    s2: int,
    s3: int,
    keys: tuple[int, ...],
    rounds: int,
    t0: tuple[int, ...] = _T0,
    t1: tuple[int, ...] = _T1,
    t2: tuple[int, ...] = _T2,
    t3: tuple[int, ...] = _T3,
    sb: bytes = _SBOX,
) -> tuple[int, int, int, int]:
    s0 ^= keys[0]
    s1 ^= keys[1]
    s2 ^= keys[2]
    s3 ^= keys[3]
    i = 4
    for _ in range(rounds - 1):
        u0 = t0[s0 >> 24] ^ t1[(s1 >> 16) & 255] ^ t2[(s2 >> 8) & 255] ^ t3[s3 & 255]
        u1 = t0[s1 >> 24] ^ t1[(s2 >> 16) & 255] ^ t2[(s3 >> 8) & 255] ^ t3[s0 & 255]
        u2 = t0[s2 >> 24] ^ t1[(s3 >> 16) & 255] ^ t2[(s0 >> 8) & 255] ^ t3[s1 & 255]
        u3 = t0[s3 >> 24] ^ t1[(s0 >> 16) & 255] ^ t2[(s1 >> 8) & 255] ^ t3[s2 & 255]
        s0 = u0 ^ keys[i]
        s1 = u1 ^ keys[i + 1]
        s2 = u2 ^ keys[i + 2]
        s3 = u3 ^ keys[i + 3]
        i += 4
    o0 = (
        sb[s0 >> 24] << 24
        | sb[(s1 >> 16) & 255] << 16
        | sb[(s2 >> 8) & 255] << 8
        | sb[s3 & 255]
    ) ^ keys[i]
    o1 = (
        sb[s1 >> 24] << 24
        | sb[(s2 >> 16) & 255] << 16
        | sb[(s3 >> 8) & 255] << 8
        | sb[s0 & 255]
    ) ^ keys[i + 1]
    o2 = (
        sb[s2 >> 24] << 24
        | sb[(s3 >> 16) & 255] << 16
        | sb[(s0 >> 8) & 255] << 8
        | sb[s1 & 255]
    ) ^ keys[i + 2]
    o3 = (
        sb[s3 >> 24] << 24
        | sb[(s0 >> 16) & 255] << 16
        | sb[(s1 >> 8) & 255] << 8
        | sb[s2 & 255]
    ) ^ keys[i + 3]
    return o0, o1, o2, o3


def _decrypt_words(
    s0: int,
    s1: int,
    s2: int,
    s3: int,
    keys: tuple[int, ...],
    rounds: int,
    d0: tuple[int, ...] = _D0,
    d1: tuple[int, ...] = _D1,
    d2: tuple[int, ...] = _D2,
    d3: tuple[int, ...] = _D3,
    isb: bytes = _INV_SBOX,
) -> tuple[int, int, int, int]:
    s0 ^= keys[0]
    s1 ^= keys[1]
    s2 ^= keys[2]
    s3 ^= keys[3]
    i = 4
    for _ in range(rounds - 1):
        u0 = d0[s0 >> 24] ^ d1[(s3 >> 16) & 255] ^ d2[(s2 >> 8) & 255] ^ d3[s1 & 255]
        u1 = d0[s1 >> 24] ^ d1[(s0 >> 16) & 255] ^ d2[(s3 >> 8) & 255] ^ d3[s2 & 255]
        u2 = d0[s2 >> 24] ^ d1[(s1 >> 16) & 255] ^ d2[(s0 >> 8) & 255] ^ d3[s3 & 255]
        u3 = d0[s3 >> 24] ^ d1[(s2 >> 16) & 255] ^ d2[(s1 >> 8) & 255] ^ d3[s0 & 255]
        s0 = u0 ^ keys[i]
        s1 = u1 ^ keys[i + 1]
        s2 = u2 ^ keys[i + 2]
        s3 = u3 ^ keys[i + 3]
        i += 4
    o0 = (
        isb[s0 >> 24] << 24
        | isb[(s3 >> 16) & 255] << 16
        | isb[(s2 >> 8) & 255] << 8
        | isb[s1 & 255]
    ) ^ keys[i]
    o1 = (
        isb[s1 >> 24] << 24
        | isb[(s0 >> 16) & 255] << 16
        | isb[(s3 >> 8) & 255] << 8
        | isb[s2 & 255]
    ) ^ keys[i + 1]
    o2 = (
        isb[s2 >> 24] << 24
        | isb[(s1 >> 16) & 255] << 16
        | isb[(s0 >> 8) & 255] << 8
        | isb[s3 & 255]
    ) ^ keys[i + 2]
    o3 = (
        isb[s3 >> 24] << 24
        | isb[(s2 >> 16) & 255] << 16
        | isb[(s1 >> 8) & 255] << 8
        | isb[s0 & 255]
    ) ^ keys[i + 3]
    return o0, o1, o2, o3


class FastAES(BlockCipher):
    """T-table AES, byte-for-byte equivalent to the reference cipher.

    Single blocks and all decryption go through the T-tables; batches of
    two or more blocks through the wide kernel, which is faster per block
    from a width of two on.  Reports the same ``name`` as the reference
    (``aes-128`` etc.) so metric counter keys, trace costs, and bench
    reports are identical whichever backend produced them.
    """

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in _ROUNDS_BY_KEY_LENGTH:
            raise KeyLengthError(
                f"AES keys must be 16, 24, or 32 bytes, got {len(key)}"
            )
        self._rounds = _ROUNDS_BY_KEY_LENGTH[len(key)]
        self.name = f"aes-{len(key) * 8}"
        self._schedules = _word_schedules(key)
        self._enc_keys = self._schedules.enc
        self._dec_keys = self._schedules.dec

    def encrypt_block(self, block: bytes) -> bytes:
        self._check_block(block)
        o0, o1, o2, o3 = _encrypt_words(
            int.from_bytes(block[0:4], "big"),
            int.from_bytes(block[4:8], "big"),
            int.from_bytes(block[8:12], "big"),
            int.from_bytes(block[12:16], "big"),
            self._enc_keys,
            self._rounds,
        )
        return (o0 << 96 | o1 << 64 | o2 << 32 | o3).to_bytes(16, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        self._check_block(block)
        o0, o1, o2, o3 = _decrypt_words(
            int.from_bytes(block[0:4], "big"),
            int.from_bytes(block[4:8], "big"),
            int.from_bytes(block[8:12], "big"),
            int.from_bytes(block[12:16], "big"),
            self._dec_keys,
            self._rounds,
        )
        return (o0 << 96 | o1 << 64 | o2 << 32 | o3).to_bytes(16, "big")

    def encrypt_blocks(self, blocks: Sequence[bytes]) -> list[bytes]:
        if len(blocks) < 2:
            return self._table_blocks(blocks, _encrypt_words, self._enc_keys)
        if set(map(len, blocks)) != {16}:
            for block in blocks:
                self._check_block(block)
        key_blocks, keys = _wide_schedule(self._schedules, len(blocks))
        out: list[bytes] = []
        for start in range(0, len(blocks), WIDE_CHUNK):
            chunk = blocks[start : start + WIDE_CHUNK]
            out += _encrypt_wide(chunk, keys, key_blocks)
        return out

    def decrypt_blocks(self, blocks: Sequence[bytes]) -> list[bytes]:
        return self._table_blocks(blocks, _decrypt_words, self._dec_keys)

    def _table_blocks(self, blocks: Sequence[bytes], core, keys) -> list[bytes]:
        rounds = self._rounds
        check = self._check_block
        from_bytes = int.from_bytes
        out = []
        for block in blocks:
            check(block)
            o0, o1, o2, o3 = core(
                from_bytes(block[0:4], "big"),
                from_bytes(block[4:8], "big"),
                from_bytes(block[8:12], "big"),
                from_bytes(block[12:16], "big"),
                keys,
                rounds,
            )
            out.append((o0 << 96 | o1 << 64 | o2 << 32 | o3).to_bytes(16, "big"))
        return out
