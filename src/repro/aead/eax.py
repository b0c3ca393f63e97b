"""EAX mode (Bellare–Rogaway–Wagner, FSE 2004) — paper reference [1].

EAX is the first AEAD option the paper's fix names (Sect. 4).  It is a
two-pass scheme:

    N' = OMAC^0_K(N);  H' = OMAC^1_K(H);
    C  = CTR_K[N'](M); C' = OMAC^2_K(C);
    T  = (N' ⊕ C' ⊕ H')[:τ]

where ``OMAC^t_K(M) = OMAC_K([t]_n ∥ M)``.

Invocation accounting (paper Sect. 4, Performance Overhead): for n
plaintext blocks, m header blocks, and a one-block nonce, EAX needs
``2n + m + 1`` blockcipher invocations after precomputation.  We realise
that exactly: the OMAC subkeys (1 call) and the chaining state after
each tweak block [0], [1], [2] (3 calls) are cached per key, so each
message costs n (CTR) + n (OMAC of C, amortised) + m (OMAC of H) + 1
(OMAC of N) marginal calls — benchmark T-P verifies the formula against
a :class:`~repro.primitives.blockcipher.CountingCipher`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.aead.base import AEAD
from repro.primitives.blockcipher import BlockCipher
from repro.primitives.util import (
    constant_time_equal,
    gf_double,
    int_to_bytes,
    xor_bytes_strict,
)


#: Messages per pass through the chain scheduler.  A pass this size
#: already fills the cipher's widest batch calls; larger batches run in
#: passes so their per-block temporaries stay small.
_PASS_ITEMS = 256


class EAX(AEAD):
    """EAX over any block cipher, default full-block tags."""

    name = "eax"
    nonce_size = None  # EAX accepts arbitrary-length nonces.

    def __init__(self, cipher: BlockCipher, tag_size: int | None = None) -> None:
        self._cipher = cipher
        block = cipher.block_size
        self.tag_size = tag_size if tag_size is not None else block
        if not 1 <= self.tag_size <= block:
            raise ValueError("tag size must be between 1 and the block size")
        # --- precomputation (reusable across messages; 4 calls) ---
        l_value = cipher.encrypt_block(bytes(block))
        self._k1 = gf_double(l_value)
        self._k2 = gf_double(self._k1)
        self._tweak_state = {
            t: cipher.encrypt_block(int_to_bytes(t, block)) for t in (0, 1, 2)
        }

    @property
    def block_size(self) -> int:
        return self._cipher.block_size

    # -- internals ----------------------------------------------------------

    def _omac_chains(self, jobs: Sequence[tuple[int, bytes]]) -> list[bytes]:
        """``OMAC^t_K(M)`` for every ``(t, M)`` in ``jobs``.

        Each chain resumes from the cached state after its tweak block
        (an empty message has the tweak block as its final block, so it
        starts from the zero state instead).  A chain is sequential, but
        chains are independent of each other, so wave ``k`` runs step
        ``k`` of every chain still going in one cipher call.  Same bytes,
        same per-chain invocation count as running the chains one by one.
        """
        block = self.block_size
        messages: list[bytes] = []
        bodies: list[int] = []  # full blocks before each chain's final one
        finals: list[bytes] = []
        states: list[bytes] = []
        for tweak, message in jobs:
            if message:
                body = (len(message) - 1) // block
                last = message[body * block :]
                if len(last) == block:
                    final = xor_bytes_strict(last, self._k1)
                else:
                    padded = last + b"\x80" + bytes(block - len(last) - 1)
                    final = xor_bytes_strict(padded, self._k2)
                state = self._tweak_state[tweak]
            else:
                body = 0
                final = xor_bytes_strict(int_to_bytes(tweak, block), self._k1)
                state = bytes(block)
            messages.append(message)
            bodies.append(body)
            finals.append(final)
            states.append(state)
        active = list(range(len(jobs)))
        k = 0
        while active:
            offset = k * block
            inputs = [
                xor_bytes_strict(
                    messages[i][offset : offset + block]
                    if k < bodies[i]
                    else finals[i],
                    states[i],
                )
                for i in active
            ]
            for i, out in zip(active, self._cipher.encrypt_blocks(inputs)):
                states[i] = out
            k += 1
            active = [i for i in active if k <= bodies[i]]
        return states

    def _ctr_streams(
        self, starts: Sequence[bytes], lengths: Sequence[int]
    ) -> list[bytes]:
        """All CTR keystreams of the batch in one cipher call."""
        block = self.block_size
        modulus = 256**block
        inputs: list[bytes] = []
        spans: list[tuple[int, int, int]] = []
        for start, length in zip(starts, lengths):
            counter = int.from_bytes(start, "big")
            needed = -(-length // block)
            begin = len(inputs)
            for j in range(needed):
                inputs.append(int_to_bytes((counter + j) % modulus, block))
            spans.append((begin, needed, length))
        keystream = self._cipher.encrypt_blocks(inputs)
        return [
            b"".join(keystream[begin : begin + needed])[:length]
            for begin, needed, length in spans
        ]

    def _tag(self, n_mac: bytes, h_mac: bytes, c_mac: bytes) -> bytes:
        return xor_bytes_strict(xor_bytes_strict(n_mac, c_mac), h_mac)[: self.tag_size]

    # -- AEAD interface --------------------------------------------------------
    #
    # A single message is a batch of one: its N and H chains (and, when
    # decrypting, its C chain) still share cipher calls.

    def encrypt(
        self, nonce: bytes, plaintext: bytes, header: bytes = b""
    ) -> tuple[bytes, bytes]:
        return self.encrypt_batch([(nonce, plaintext, header)])[0]

    def decrypt(
        self, nonce: bytes, ciphertext: bytes, tag: bytes, header: bytes = b""
    ) -> bytes:
        return self.decrypt_batch([(nonce, ciphertext, tag, header)])[0]

    def encrypt_batch(
        self, items: Sequence[tuple[bytes, bytes, bytes]]
    ) -> list[tuple[bytes, bytes]]:
        for nonce, _, _ in items:
            self._check_nonce(nonce)
        out: list[tuple[bytes, bytes]] = []
        for start in range(0, len(items), _PASS_ITEMS):
            out += self._encrypt_pass(items[start : start + _PASS_ITEMS])
        return out

    def decrypt_batch(
        self, items: Sequence[tuple[bytes, bytes, bytes, bytes]]
    ) -> list[bytes]:
        # Every nonce, then every tag of the batch is checked before any
        # CTR work runs, so a failing batch costs exactly its MACs.
        for nonce, _, _, _ in items:
            self._check_nonce(nonce)
        n_macs: list[bytes] = []
        for start in range(0, len(items), _PASS_ITEMS):
            n_macs += self._verify_pass(items[start : start + _PASS_ITEMS])
        if not all(n_macs):
            raise self._invalid()
        out: list[bytes] = []
        for start in range(0, len(items), _PASS_ITEMS):
            stop = start + _PASS_ITEMS
            streams = self._ctr_streams(
                n_macs[start:stop],
                [len(ciphertext) for _, ciphertext, _, _ in items[start:stop]],
            )
            out += [
                xor_bytes_strict(ciphertext, stream)
                for (_, ciphertext, _, _), stream in zip(items[start:stop], streams)
            ]
        return out

    def _encrypt_pass(
        self, items: Sequence[tuple[bytes, bytes, bytes]]
    ) -> list[tuple[bytes, bytes]]:
        count = len(items)
        # N and H chains of every item share waves; C needs the ciphertext.
        macs = self._omac_chains(
            [(0, nonce) for nonce, _, _ in items]
            + [(1, header) for _, _, header in items]
        )
        n_macs, h_macs = macs[:count], macs[count:]
        streams = self._ctr_streams(
            n_macs, [len(plaintext) for _, plaintext, _ in items]
        )
        ciphertexts = [
            xor_bytes_strict(plaintext, stream)
            for (_, plaintext, _), stream in zip(items, streams)
        ]
        c_macs = self._omac_chains([(2, ciphertext) for ciphertext in ciphertexts])
        return [
            (ciphertext, self._tag(n_mac, h_mac, c_mac))
            for ciphertext, n_mac, h_mac, c_mac in zip(
                ciphertexts, n_macs, h_macs, c_macs
            )
        ]

    def _verify_pass(
        self, items: Sequence[tuple[bytes, bytes, bytes, bytes]]
    ) -> list[bytes]:
        """Each item's ``N'`` (the CTR start) if its tag verifies, else ``b""``."""
        count = len(items)
        # All three chains of every item are independent: one set of waves.
        macs = self._omac_chains(
            [(0, nonce) for nonce, _, _, _ in items]
            + [(1, header) for _, _, _, header in items]
            + [(2, ciphertext) for _, ciphertext, _, _ in items]
        )
        n_macs = macs[:count]
        h_macs = macs[count : 2 * count]
        c_macs = macs[2 * count :]
        return [
            n_mac if constant_time_equal(self._tag(n_mac, h_mac, c_mac), tag) else b""
            for (_, _, tag, _), n_mac, h_mac, c_mac in zip(
                items, n_macs, h_macs, c_macs
            )
        ]
