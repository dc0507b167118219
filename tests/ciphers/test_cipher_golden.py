"""Golden cipher corpus: the ciphertext bytes of ARC4 and XTEA-CTR, pinned.

Seeded ARC4 keys of every length from 1 to 40 bytes and seeded 16-byte
XTEA keys under several nonces encrypt seeded data of lengths 0, 1, 7,
8, 9, 255, 256, 4096 and one length past the keystream memo's prefix
cap, as ``bytes`` and as ``bytearray``.  One SHA-256 over every
ciphertext is pinned: any change to a key schedule, a keystream, the
counter layout or the XOR that moves a single byte fails here, whatever
memo sits in front of the generators.
"""

import hashlib
import random

from repro.ciphers import arc4, xtea

SEED = 20010416

#: Past the 16 KiB keystream prefix the memo keeps per key, and not a
#: multiple of the XTEA block size.
PAST_CAP = 16 * 1024 + 4096 + 3

LENGTHS = (0, 1, 7, 8, 9, 255, 256, 4096, PAST_CAP)

XTEA_NONCES = (0, 0x4D415153, 2**40 + 7)

#: SHA-256 over the corpus ciphertexts (see ``_corpus_digest``).
GOLDEN_DIGEST = "bc263d6b59c80d31a5afb255486a0ab69359f34bfee59a8a5275d6eedc5a75a4"


def _cases():
    """Yield ``(encrypt, args)`` in a fixed order."""
    rng = random.Random(SEED)
    for key_len in range(1, 41):
        key = rng.randbytes(key_len)
        for length in LENGTHS:
            data = rng.randbytes(length)
            if length % 2:
                data = bytearray(data)
            yield arc4.encrypt, (key, data)
    for _ in range(3):
        key = rng.randbytes(16)
        for nonce in XTEA_NONCES:
            for length in LENGTHS:
                data = rng.randbytes(length)
                if length % 2:
                    data = bytearray(data)
                yield xtea.encrypt, (key, data, nonce)


def _corpus_digest():
    digest = hashlib.sha256()
    count = 0
    for encrypt, args in _cases():
        sealed = encrypt(*args)
        assert type(sealed) is bytes and len(sealed) == len(args[1])
        digest.update(len(sealed).to_bytes(4, "big"))
        digest.update(sealed)
        count += 1
    return digest.hexdigest(), count


def test_golden_corpus_digest():
    digest, count = _corpus_digest()
    assert count == 40 * len(LENGTHS) + 3 * len(XTEA_NONCES) * len(LENGTHS)
    assert digest == GOLDEN_DIGEST

