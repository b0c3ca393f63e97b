"""Batch AEAD APIs: ``encrypt_batch``/``decrypt_batch`` == the loop.

The batched paths amortize subkey precomputation and keystream setup
but must be *observationally* sequential: byte-identical ciphertexts
and tags in list order, identical blockcipher-invocation totals on the
success path, and fail-closed tag verification.  Checked for every
scheme in the catalogue under both cipher backends.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aead import make_aead
from repro.errors import AuthenticationError, NonceError
from repro.primitives.aes import AES
from repro.primitives.aes_fast import FastAES
from repro.primitives.blockcipher import CountingCipher

NAMES = ["eax", "ocb", "ccfb", "gcm", "siv"]
BACKENDS = {"pure": AES, "optimized": FastAES}


def build(name, cipher_class=AES, key_byte=0, counters=None):
    key_length = 32 if name == "siv" else 16

    def factory(key):
        cipher = cipher_class(key)
        if counters is not None:
            cipher = CountingCipher(cipher)
            counters.append(cipher)
        return cipher

    return make_aead(name, factory, bytes([key_byte]) * key_length)


def nonce_for(aead, i):
    size = aead.nonce_size if aead.nonce_size else 16
    return i.to_bytes(2, "big").rjust(size, b"\x00")


def total_calls(counters):
    return sum(c.encrypt_calls + c.decrypt_calls for c in counters)


MESSAGE_SHAPES = [
    [],
    [b""],
    [b"x"],
    [b"a" * 16],  # exactly one block
    [b"a" * 15, b"b" * 16, b"c" * 17],  # straddles the block boundary
    [b"", b"short", b"m" * 33, b"", b"n" * 48],  # mixed lengths with empties
]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("plaintexts", MESSAGE_SHAPES)
def test_encrypt_batch_equals_loop(name, backend, plaintexts):
    cipher_class = BACKENDS[backend]
    sequential = build(name, cipher_class)
    batched = build(name, cipher_class)
    items = [
        (nonce_for(sequential, i), plain, b"header-%d" % i)
        for i, plain in enumerate(plaintexts)
    ]
    expected = [
        sequential.encrypt(nonce, plain, header) for nonce, plain, header in items
    ]
    assert batched.encrypt_batch(items) == expected


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("plaintexts", MESSAGE_SHAPES)
def test_decrypt_batch_round_trips(name, backend, plaintexts):
    aead = build(name, BACKENDS[backend])
    items = [
        (nonce_for(aead, i), plain, b"h%d" % i) for i, plain in enumerate(plaintexts)
    ]
    sealed = aead.encrypt_batch(items)
    quads = [
        (nonce, ciphertext, tag, header)
        for (nonce, _, header), (ciphertext, tag) in zip(items, sealed)
    ]
    assert aead.decrypt_batch(quads) == plaintexts


@pytest.mark.parametrize("name", NAMES)
def test_batch_charges_same_invocations_as_loop(name):
    loop_counters, batch_counters = [], []
    sequential = build(name, counters=loop_counters)
    batched = build(name, counters=batch_counters)
    items = [
        (nonce_for(sequential, i), bytes([i]) * (11 * i % 40), b"ad")
        for i in range(5)
    ]
    sealed = [sequential.encrypt(n, p, h) for n, p, h in items]
    batched.encrypt_batch(items)
    assert total_calls(batch_counters) == total_calls(loop_counters)

    quads = [
        (n, c, t, h) for (n, _, h), (c, t) in zip(items, sealed)
    ]
    for counters in (loop_counters, batch_counters):
        for counter in counters:
            counter.encrypt_calls = counter.decrypt_calls = 0
    for quad in quads:
        sequential.decrypt(*quad)
    batched.decrypt_batch(quads)
    assert total_calls(batch_counters) == total_calls(loop_counters)


@pytest.mark.parametrize("name", NAMES)
def test_tampered_batch_fails_closed(name):
    aead = build(name)
    items = [(nonce_for(aead, i), b"payload-%d" % i, b"") for i in range(3)]
    sealed = aead.encrypt_batch(items)
    quads = [
        (nonce, ciphertext, tag, header)
        for (nonce, _, header), (ciphertext, tag) in zip(items, sealed)
    ]
    nonce, ciphertext, tag, header = quads[1]
    quads[1] = (nonce, ciphertext, bytes([tag[0] ^ 1]) + tag[1:], header)
    with pytest.raises(AuthenticationError):
        aead.decrypt_batch(quads)


@pytest.mark.parametrize("name", ["eax", "ocb"])
@given(st.lists(st.binary(max_size=70), max_size=6))
@settings(max_examples=25, deadline=None)
def test_batch_property_byte_for_byte(name, plaintexts):
    sequential = build(name)
    batched = build(name)
    items = [
        (nonce_for(sequential, i), plain, b"aad") for i, plain in enumerate(plaintexts)
    ]
    expected = [sequential.encrypt(n, p, h) for n, p, h in items]
    assert batched.encrypt_batch(items) == expected


# -- EAX batches across its 256-message passes ----------------------------------
#
# EAX runs a batch in passes of 256 messages, but the batch must still
# behave as one: every nonce is checked before any cipher call and every
# tag before any keystream block, so a failing batch costs exactly the
# MACs of all its messages, wherever the bad tag sits.

WIDE_BATCH = 600


def _reset(counters):
    for counter in counters:
        counter.reset()


def _eax_wide(counters):
    aead = build("eax", FastAES, counters=counters)
    items = [
        (nonce_for(aead, i), bytes([i % 256]) * (i % 37), b"h%d" % i)
        for i in range(WIDE_BATCH)
    ]
    return aead, items


def test_eax_batch_across_passes_equals_loop():
    loop_counters, batch_counters = [], []
    sequential, items = _eax_wide(loop_counters)
    batched, _ = _eax_wide(batch_counters)
    _reset(loop_counters + batch_counters)
    sealed = [sequential.encrypt(*item) for item in items]
    assert batched.encrypt_batch(items) == sealed
    assert total_calls(batch_counters) == total_calls(loop_counters)
    quads = [(n, c, t, h) for (n, _, h), (c, t) in zip(items, sealed)]
    _reset(loop_counters + batch_counters)
    plaintexts = [sequential.decrypt(*quad) for quad in quads]
    assert batched.decrypt_batch(quads) == plaintexts
    assert total_calls(batch_counters) == total_calls(loop_counters)


@pytest.mark.parametrize("bad", [0, 255, 256, WIDE_BATCH - 1])
def test_eax_failing_batch_costs_exactly_its_macs(bad):
    counters = []
    aead, items = _eax_wide(counters)
    quads = [
        (n, c, t, h) for (n, _, h), (c, t) in zip(items, aead.encrypt_batch(items))
    ]
    _reset(counters)
    aead.decrypt_batch(quads)
    keystream_blocks = sum(-(-len(c) // 16) for _, c, _, _ in quads)
    macs_only = total_calls(counters) - keystream_blocks
    nonce, ciphertext, tag, header = quads[bad]
    quads[bad] = (nonce, ciphertext, bytes([tag[0] ^ 1]) + tag[1:], header)
    _reset(counters)
    with pytest.raises(AuthenticationError, match="^invalid$"):
        aead.decrypt_batch(quads)
    assert total_calls(counters) == macs_only


def test_eax_batch_checks_every_nonce_before_any_cipher_call():
    counters = []
    aead, items = _eax_wide(counters)
    quads = [
        (n, c, t, h) for (n, _, h), (c, t) in zip(items, aead.encrypt_batch(items))
    ]
    items[300] = (b"", b"x", b"")
    quads[300] = (b"",) + quads[300][1:]
    _reset(counters)
    with pytest.raises(NonceError):
        aead.encrypt_batch(items)
    with pytest.raises(NonceError):
        aead.decrypt_batch(quads)
    assert total_calls(counters) == 0
