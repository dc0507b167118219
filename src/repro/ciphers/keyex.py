"""Finite-field Diffie-Hellman key agreement.

The encryption characteristic performs its "QoS to QoS" key exchange
(Section 3.2) by sending the public values as MAQS commands.  The
group is the 1536-bit MODP group from RFC 3526 — real parameters, so
the agreement arithmetic is genuine even though the surrounding
ciphers are toys.

The public value ``g**x mod p`` has a fixed base and modulus, so it is
computed with the fixed-base comb of Lim and Lee ("More Flexible
Exponentiation with Precomputation", CRYPTO '94; HAC 14.6.3): the
exponent's 1540 bits are read as 10 rows of 154 bits, and a table of
the 1024 products of ``g**(2**(154*i))`` turns each column into one
squaring and one multiplication — 154 of each instead of ``pow``'s
1536 squarings.  The table (about 240 KiB) is built once per process
on first use.  Public values, session keys and every byte on the wire
are identical to ``pow``'s; the shared key keeps ``pow`` because its
base is the peer's value.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional, Tuple

# RFC 3526, group 5 (1536-bit MODP).
PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF",
    16,
)
GENERATOR = 2


#: Comb shape: ``ROWS`` rows of ``COLUMNS`` exponent bits each.
ROWS = 10
COLUMNS = -(-PRIME.bit_length() // ROWS)
_BITS = f"0{ROWS * COLUMNS}b"
_LIMIT = 1 << (ROWS * COLUMNS)

_TABLE: Optional[Tuple[int, ...]] = None


def _build_table() -> Tuple[int, ...]:
    """Entry ``j`` is the product of ``g**(2**(COLUMNS*i))`` over bits ``i`` of ``j``."""
    row_bases = [GENERATOR]
    for _ in range(ROWS - 1):
        base = row_bases[-1]
        for _ in range(COLUMNS):
            base = base * base % PRIME
        row_bases.append(base)
    table = [1] * (1 << ROWS)
    for index in range(1, 1 << ROWS):
        low = index & -index
        table[index] = table[index ^ low] * row_bases[low.bit_length() - 1] % PRIME
    return tuple(table)


def generator_pow(exponent: int) -> int:
    """``GENERATOR ** exponent mod PRIME`` for ``0 <= exponent < 2**1540``.

    >>> generator_pow(PRIME - 3) == pow(GENERATOR, PRIME - 3, PRIME)
    True
    """
    global _TABLE
    if not 0 <= exponent < _LIMIT:
        raise ValueError("exponent out of the comb's range")
    table = _TABLE
    if table is None:
        # One assignment of a finished tuple: threads racing here at
        # most build it twice, never see it half filled.
        table = _TABLE = _build_table()
    bits = format(exponent, _BITS)
    acc = 1
    # bits[column::COLUMNS] is that column's bit of every row, the top
    # row first: the column's table index, read as a binary numeral.
    for column in range(COLUMNS):
        acc = acc * acc % PRIME * table[int(bits[column::COLUMNS], 2)] % PRIME
    return acc


class KeyExchange:
    """One endpoint of a Diffie-Hellman agreement.

    >>> alice, bob = KeyExchange(seed=1), KeyExchange(seed=2)
    >>> ka = alice.shared_key(bob.public_value)
    >>> kb = bob.shared_key(alice.public_value)
    >>> ka == kb
    True
    """

    def __init__(self, seed: int = 0) -> None:
        rng = random.Random(seed)
        self._secret = rng.randrange(2, PRIME - 2)
        self.public_value = generator_pow(self._secret)

    def shared_key(self, peer_public: int, length: int = 16) -> bytes:
        """Derive a ``length``-byte session key from the peer's public value.

        A peer value that is not an ``int`` (a ``bool`` is not one here)
        raises ``TypeError``; one outside ``[2, PRIME - 2]`` raises
        ``ValueError``.
        """
        if not isinstance(peer_public, int) or isinstance(peer_public, bool):
            raise TypeError(
                f"peer public value must be an int, not {type(peer_public).__name__}"
            )
        if not 2 <= peer_public <= PRIME - 2:
            raise ValueError("peer public value out of range")
        shared = pow(peer_public, self._secret, PRIME)
        digest = hashlib.sha256(
            shared.to_bytes((PRIME.bit_length() + 7) // 8, "big")
        ).digest()
        if length > len(digest):
            raise ValueError(f"cannot derive more than {len(digest)} bytes")
        return digest[:length]


def derive_pair(seed_a: int, seed_b: int, length: int = 16) -> Tuple[bytes, bytes]:
    """Run a full agreement between two seeded endpoints (test helper)."""
    a, b = KeyExchange(seed_a), KeyExchange(seed_b)
    return a.shared_key(b.public_value, length), b.shared_key(a.public_value, length)
