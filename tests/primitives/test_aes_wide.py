"""The optimized backend's wide AES kernel against the reference cipher.

``FastAES.encrypt_blocks`` packs batches of two or more blocks into one
integer per chunk of :data:`WIDE_CHUNK` blocks.  These tests pin the
kernel byte-for-byte to the pure ``AES`` at every width that matters —
one block (T-table path), the break-even width, both sides of the chunk
edge, and a multi-chunk batch with a remainder — for all three key
sizes, and check that the chunk-wide round keys are built once per key.
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BlockSizeError
from repro.primitives import aes_fast
from repro.primitives.aes import AES
from repro.primitives.aes_fast import WIDE_CHUNK, FastAES

WIDTHS = (1, 2, 3, 255, 256, 257, 600)
KEY_SIZES = (16, 24, 32)


def _blocks(width: int, seed: int) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(16) for _ in range(width)]


def test_widths_cross_the_chunk_edge():
    assert WIDE_CHUNK == 256
    assert {WIDE_CHUNK - 1, WIDE_CHUNK, WIDE_CHUNK + 1} <= set(WIDTHS)
    assert max(WIDTHS) > 2 * WIDE_CHUNK


@pytest.mark.parametrize("key_size", KEY_SIZES)
@pytest.mark.parametrize("width", WIDTHS)
def test_wide_kernel_matches_reference(key_size, width):
    key = bytes(range(key_size))
    blocks = _blocks(width, seed=width * 100 + key_size)
    reference = AES(key)
    expected = [reference.encrypt_block(block) for block in blocks]
    assert FastAES(key).encrypt_blocks(blocks) == expected
    assert FastAES(key).decrypt_blocks(expected) == blocks


@given(
    st.sampled_from(KEY_SIZES).flatmap(
        lambda n: st.tuples(
            st.binary(min_size=n, max_size=n),
            st.lists(st.binary(min_size=16, max_size=16), min_size=2, max_size=40),
        )
    )
)
@settings(max_examples=40, deadline=None)
def test_wide_kernel_property(key_and_blocks):
    key, blocks = key_and_blocks
    reference = AES(key)
    assert FastAES(key).encrypt_blocks(blocks) == [
        reference.encrypt_block(block) for block in blocks
    ]


def test_wide_kernel_accepts_any_sequence_of_bytes_like_blocks():
    key = os.urandom(16)
    blocks = _blocks(5, seed=1)
    expected = [AES(key).encrypt_block(block) for block in blocks]
    fast = FastAES(key)
    assert fast.encrypt_blocks(tuple(blocks)) == expected
    assert fast.encrypt_blocks([bytearray(block) for block in blocks]) == expected
    assert all(type(out) is bytes for out in fast.encrypt_blocks(blocks))


def test_empty_batch():
    assert FastAES(bytes(16)).encrypt_blocks([]) == []


@pytest.mark.parametrize("bad", [b"", b"\x00" * 15, b"\x00" * 17])
def test_wide_kernel_rejects_a_wrong_sized_block(bad):
    fast = FastAES(bytes(16))
    with pytest.raises(BlockSizeError):
        fast.encrypt_blocks([bytes(16), bad, bytes(16)])
    # Lengths that sum to whole blocks are still rejected per block.
    with pytest.raises(BlockSizeError):
        fast.encrypt_blocks([b"\x00" * 8, b"\x00" * 24])


def test_instances_over_one_key_share_one_wide_schedule():
    key = os.urandom(32)
    ciphers = [FastAES(key) for _ in range(40)]
    for cipher in ciphers:
        cipher.encrypt_blocks(_blocks(3, seed=2))
    assert len({id(cipher._schedules) for cipher in ciphers}) == 1
    assert ciphers[0]._schedules is aes_fast._word_schedules(key)
    key_blocks, keys = ciphers[0]._schedules.wide
    assert key_blocks == 4  # the next power of two at or above 3
    assert len(keys) == 15  # AES-256: 14 rounds + 1


def test_wide_schedule_is_built_lazily_and_grows_to_the_widest_batch():
    key = os.urandom(16)
    cipher, reference = FastAES(key), AES(key)
    cipher.encrypt_block(bytes(16))
    cipher.encrypt_blocks([bytes(16)])
    assert cipher._schedules.wide == (0, ())
    for width, key_blocks in ((2, 2), (3, 4), (600, WIDE_CHUNK), (5, WIDE_CHUNK)):
        blocks = _blocks(width, seed=width)
        expected = [reference.encrypt_block(block) for block in blocks]
        assert cipher.encrypt_blocks(blocks) == expected
        assert cipher._schedules.wide[0] == key_blocks


def test_wide_schedules_are_kept_for_a_bounded_number_of_keys():
    limit = aes_fast._MAX_WIDE_SCHEDULES
    keys = [os.urandom(16) for _ in range(limit + 5)]
    ciphers = [FastAES(key) for key in keys]
    for cipher in ciphers:
        cipher.encrypt_blocks(_blocks(WIDE_CHUNK, seed=3))
    widths = [cipher._schedules.wide[0] for cipher in ciphers]
    # The least recently used keys gave theirs up; the rest keep theirs.
    assert widths == [0] * 5 + [WIDE_CHUNK] * limit
    assert len(aes_fast._wide_owners) == limit
    # An evicted key rebuilds its wide round keys on its next wide call.
    blocks = _blocks(7, seed=4)
    reference = AES(keys[0])
    assert ciphers[0].encrypt_blocks(blocks) == [
        reference.encrypt_block(block) for block in blocks
    ]
    assert ciphers[0]._schedules.wide[0] == 8
    assert ciphers[5]._schedules.wide == (0, ())
