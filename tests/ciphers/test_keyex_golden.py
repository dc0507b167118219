"""Golden Diffie-Hellman corpus: public values and session keys, pinned.

The public values of seeded endpoints 0-63, the session keys of 32
seeded endpoint pairs at lengths 1, 16 and 32, and ``g**e mod p`` for
edge exponents go into one SHA-256.  The edge exponents are 0-3,
``PRIME - 3``, ``2**k - 1`` for widths around the comb's row and full
size, values whose 154-bit comb rows (ten of them, 1540 bits) are all
ones or all zeros, and single set bits at the corners of the rows.
Any change to the exponentiation that moves a single bit of a public
value or a key fails here.
"""

import hashlib
import random

from repro.ciphers.keyex import PRIME, KeyExchange, generator_pow

SEED = 20010416

#: The comb's row width and row count: ten rows of 154 bits.
ROW_BITS = 154
ROWS = 10

#: SHA-256 over the corpus (see ``_corpus_digest``).
GOLDEN_DIGEST = "10a7fc9b5bf4c283a0ec90e62558510f807b6a2b59c4179fd4cfb7db2c3a5810"

ROW_ONES = (1 << ROW_BITS) - 1


def _rows(pattern):
    """The exponent whose row ``r`` is all ones where ``pattern`` has bit ``r``."""
    return sum(ROW_ONES << (r * ROW_BITS) for r in range(ROWS) if pattern >> r & 1)


def edge_exponents():
    yield from (0, 1, 2, 3, PRIME - 3)
    for k in (2, 8, 64, 153, 154, 155, 1385, 1386, 1387, 1535, 1536, 1540):
        yield (1 << k) - 1
    for pattern in (0b1, 0b10, 0b1000000000, 0b0101010101, 0b1010101010,
                    0b0111111111, 0b1111111110, 0b1111111111):
        yield _rows(pattern)
    # Single set bits: the first and last column of the first and last row.
    for bit in (0, ROW_BITS - 1, (ROWS - 1) * ROW_BITS, ROWS * ROW_BITS - 1):
        yield 1 << bit


def _corpus_digest():
    digest = hashlib.sha256()
    width = (PRIME.bit_length() + 7) // 8
    counts = [0, 0, 0]
    for seed in range(64):
        digest.update(KeyExchange(seed).public_value.to_bytes(width, "big"))
        counts[0] += 1
    rng = random.Random(SEED)
    for _ in range(32):
        a, b = KeyExchange(rng.randrange(2**32)), KeyExchange(rng.randrange(2**32))
        assert a.shared_key(b.public_value, 32) == b.shared_key(a.public_value, 32)
        for length in (1, 16, 32):
            key = a.shared_key(b.public_value, length)
            assert len(key) == length
            digest.update(key)
            counts[1] += 1
    for exponent in edge_exponents():
        digest.update(generator_pow(exponent).to_bytes(width, "big"))
        counts[2] += 1
    return digest.hexdigest(), counts


def test_golden_corpus_digest():
    digest, counts = _corpus_digest()
    assert counts == [64, 32 * 3, 5 + 12 + 8 + 4]
    assert digest == GOLDEN_DIGEST
