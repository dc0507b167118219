"""Edge cases of the per-key keystream memo shared by ARC4 and XTEA-CTR.

Every ciphertext is checked against reference copies of the original
per-message generators below, which run the key schedule and the
keystream from offset 0 on every call and XOR byte by byte.
"""

import random
import struct
import sys
import threading
import tracemalloc

import pytest

from repro.ciphers import arc4, forget, keystream, xtea
from repro.ciphers.keystream import MAX_KEYS, PREFIX_CAP

KEY16 = b"0123456789abcdef"


def ref_arc4_keystream(key, length):
    if not key:
        raise ValueError("ARC4 key must not be empty")
    state = list(range(256))
    j = 0
    for i in range(256):
        j = (j + state[i] + key[i % len(key)]) & 0xFF
        state[i], state[j] = state[j], state[i]
    out = bytearray(length)
    i = j = 0
    for index in range(length):
        i = (i + 1) & 0xFF
        j = (j + state[i]) & 0xFF
        state[i], state[j] = state[j], state[i]
        out[index] = state[(state[i] + state[j]) & 0xFF]
    return bytes(out)


def _ref_xtea_block(v0, v1, k):
    total = 0
    for _ in range(32):
        v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ (total + k[total & 3]))) & 0xFFFFFFFF
        total = (total + 0x9E3779B9) & 0xFFFFFFFF
        v1 = (
            v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ (total + k[(total >> 11) & 3]))
        ) & 0xFFFFFFFF
    return v0, v1


def ref_xtea_keystream(key, length, nonce=0x4D415153):
    if len(key) != 16:
        raise ValueError(f"XTEA requires a 16-byte key, got {len(key)}")
    k = struct.unpack(">4I", key)
    out = bytearray()
    for counter in range((length + 7) // 8):
        v0 = (nonce >> 32) & 0xFFFFFFFF
        v1 = (nonce ^ counter) & 0xFFFFFFFF
        out.extend(struct.pack(">2I", *_ref_xtea_block(v0, v1, k)))
    return bytes(out)


def ref_xor(data, stream):
    return bytes(a ^ b for a, b in zip(bytes(data), stream))


def memo_slots(key):
    return [slot for slot in keystream._MEMO if slot[1] == bytes(key)]


@pytest.fixture(autouse=True)
def fresh_keys():
    """Each test starts with none of its keys memoised."""
    for key in (KEY16, b"k", b"SECRETKEY1234567", b"secretkey1234567"):
        forget(key)
    yield


class TestLengths:
    # Growing, then shrinking, then past the cap, then inside it again.
    LENGTHS = (0, 1, 5, 8, 9, 100, 300, 2049, 5000, 1000, 64, 7, 0,
               PREFIX_CAP - 1, PREFIX_CAP, PREFIX_CAP + 1, PREFIX_CAP + 4099,
               2 * PREFIX_CAP + 13, 33, PREFIX_CAP + 5)

    def test_arc4_matches_reference(self):
        reference = ref_arc4_keystream(KEY16, max(self.LENGTHS))
        rng = random.Random(1)
        for length in self.LENGTHS:
            data = rng.randbytes(length)
            assert arc4.encrypt(KEY16, data) == ref_xor(data, reference)
        (slot,) = memo_slots(KEY16)
        assert len(keystream._MEMO[slot][0]) == PREFIX_CAP

    def test_xtea_matches_reference(self):
        nonce = 2**40 + 3
        reference = ref_xtea_keystream(KEY16, max(self.LENGTHS), nonce)
        rng = random.Random(2)
        for length in self.LENGTHS:
            data = rng.randbytes(length)
            assert xtea.encrypt(KEY16, data, nonce) == ref_xor(data, reference)
        (slot,) = memo_slots(KEY16)
        assert len(keystream._MEMO[slot][0]) == PREFIX_CAP

    def test_first_message_past_cap(self):
        data = random.Random(3).randbytes(PREFIX_CAP + 77)
        expected = ref_xor(data, ref_arc4_keystream(b"k", len(data)))
        assert arc4.encrypt(b"k", data) == expected
        assert arc4.encrypt(b"k", data) == expected

    @pytest.mark.parametrize("module", [arc4, xtea])
    def test_key_schedule_runs_once_per_key(self, module, monkeypatch):
        stream = module._STREAM
        starts = []
        original = stream.start

        def counting_start(*args):
            starts.append(args)
            return original(*args)

        monkeypatch.setattr(stream, "start", counting_start)
        for length in (10, 5000, PREFIX_CAP + 500, PREFIX_CAP + 9000, 3):
            module.encrypt(KEY16, bytes(length))
        assert len(starts) == 1

    def test_nonces_and_ciphers_keep_separate_streams(self):
        data = bytes(40)
        assert xtea.encrypt(KEY16, data, 1) == ref_xtea_keystream(KEY16, 40, 1)
        assert xtea.encrypt(KEY16, data, 2) == ref_xtea_keystream(KEY16, 40, 2)
        assert arc4.encrypt(KEY16, data) == ref_arc4_keystream(KEY16, 40)
        assert len(memo_slots(KEY16)) == 3

    def test_long_arc4_keys_match_reference(self):
        rng = random.Random(4)
        for length in (255, 256, 257, 600):
            key = rng.randbytes(length)
            data = rng.randbytes(50)
            assert arc4.encrypt(key, data) == ref_xor(
                data, ref_arc4_keystream(key, 50)
            )


class TestBounds:
    def test_key_bound_holds_after_many_keys(self):
        rng = random.Random(5)
        for _ in range(10_000):
            key = rng.randbytes(rng.randint(1, 24))
            arc4.encrypt(key, b"x")
            assert len(keystream._MEMO) <= MAX_KEYS
        data = rng.randbytes(200)
        assert arc4.encrypt(key, data) == ref_xor(data, ref_arc4_keystream(key, 200))

    def test_worst_case_memory_stays_under_one_mib(self):
        # ARC4 entries are the largest: 256 bytes of key material and a
        # 256-byte permutation beside the full prefix.
        rng = random.Random(6)
        data = bytes(PREFIX_CAP + 1)
        tracemalloc.start()
        try:
            for _ in range(MAX_KEYS + 2):
                arc4.encrypt(rng.randbytes(300), data)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(keystream._MEMO) == MAX_KEYS
        assert held < 1 << 20


class TestKeyIdentity:
    def test_bytes_subclass_with_own_equality(self):
        class Folding(bytes):
            def __eq__(self, other):
                return bytes(self).lower() == bytes(other).lower()

            def __hash__(self):
                return hash(bytes(self).lower())

        data = bytes(range(48))
        plain, folded = b"secretkey1234567", Folding(b"SECRETKEY1234567")
        assert folded == plain and hash(folded) == hash(plain)
        arc4.encrypt(plain, data)
        xtea.encrypt(plain, data)
        assert arc4.encrypt(folded, data) == ref_xor(
            data, ref_arc4_keystream(b"SECRETKEY1234567", 48)
        )
        assert xtea.encrypt(folded, data) == ref_xor(
            data, ref_xtea_keystream(b"SECRETKEY1234567", 48)
        )

    def test_bytearray_key_mutated_after_use(self):
        key = bytearray(KEY16)
        data = bytes(range(64))
        for _ in range(3):
            assert arc4.encrypt(key, data) == ref_xor(
                data, ref_arc4_keystream(bytes(key), 64)
            )
            assert xtea.encrypt(key, data) == ref_xor(
                data, ref_xtea_keystream(bytes(key), 64)
            )
            key[0] ^= 0x55

    def test_non_bytes_key_rejected(self):
        with pytest.raises(TypeError):
            arc4.encrypt(5, b"x")
        with pytest.raises(TypeError):
            xtea.encrypt("0123456789abcdef", b"x")


class TestValidationAfterHit:
    def test_checks_still_raise(self):
        arc4.encrypt(KEY16, b"warm")
        xtea.encrypt(KEY16, b"warm")
        with pytest.raises(ValueError):
            arc4.encrypt(b"", b"x")
        with pytest.raises(ValueError):
            xtea.encrypt(KEY16[:15], b"x")
        with pytest.raises(ValueError):
            xtea.encrypt(KEY16 + b"!", b"x")
        for bad in ("text", memoryview(b"warm"), [1, 2], None):
            with pytest.raises(TypeError):
                arc4.encrypt(KEY16, bad)
            with pytest.raises(TypeError):
                xtea.encrypt(KEY16, bad)
        with pytest.raises(TypeError):
            xtea.encrypt(KEY16, b"warm", 1.5)


class TestForget:
    def test_forget_drops_every_stream_of_a_key(self):
        arc4.encrypt(KEY16, b"abc")
        xtea.encrypt(KEY16, b"abc", 1)
        xtea.encrypt(KEY16, b"abc", 2)
        arc4.encrypt(b"k", b"abc")
        assert len(memo_slots(KEY16)) == 3
        forget(bytearray(KEY16))
        assert memo_slots(KEY16) == []
        assert len(memo_slots(b"k")) == 1
        forget(b"")  # valid for no cipher: nothing to drop
        assert len(memo_slots(b"k")) == 1


def test_threads_sharing_a_key_match_reference():
    lengths_cap = PREFIX_CAP + 3000
    reference = ref_arc4_keystream(KEY16, lengths_cap)
    xtea_reference = ref_xtea_keystream(KEY16, 4096)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(60):
                data = rng.randbytes(rng.randint(0, lengths_cap))
                if arc4.encrypt(KEY16, data) != ref_xor(data, reference):
                    errors.append(("arc4", seed, len(data)))
                data = rng.randbytes(rng.randint(0, 4096))
                if xtea.encrypt(KEY16, data) != ref_xor(data, xtea_reference):
                    errors.append(("xtea", seed, len(data)))
                if rng.random() < 0.1:
                    forget(KEY16)
        except Exception as error:  # reported below, with the thread's seed
            errors.append(("raised", seed, repr(error)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
