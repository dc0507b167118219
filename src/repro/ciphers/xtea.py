"""XTEA block cipher in counter (CTR) mode.

XTEA (Needham & Wheeler, 1997) is a 64-bit block cipher with a 128-bit
key and 64 Feistel rounds.  CTR mode turns it into a stream cipher, so
payloads need no padding and ``encrypt == decrypt`` up to the keystream.

Block ``c`` of the keystream encrypts the counter block
``(nonce >> 32, nonce ^ c)``, and every message starts at ``c = 0``, so
one ``(key, nonce)`` always yields the same keystream: kept for wire
compatibility, and not secure (two messages under one key and nonce
reveal the XOR of their plaintexts).  The keystream is memoised per
``(key, nonce)`` through :class:`~repro.ciphers.keystream.Keystream`
(bounded; see there), which keeps the next block counter.
"""

from __future__ import annotations

import operator
import struct
from typing import Tuple

from repro.ciphers.keystream import Keystream

_MASK = 0xFFFFFFFF
_DELTA = 0x9E3779B9
_ROUNDS = 32  # 32 cycles = 64 Feistel rounds
DEFAULT_NONCE = 0x4D415153

_State = Tuple[bytes, int, int]


def _material(key: bytes) -> bytes:
    if len(key) != 16:
        raise ValueError(f"XTEA requires a 16-byte key, got {len(key)}")
    return key


def _start(key: bytes, nonce: int) -> _State:
    return key, nonce, 0


def _advance(start: _State, length: int) -> Tuple[bytes, _State]:
    key, nonce, counter = start
    k = struct.unpack(">4I", key)
    # The two subkeys of each cycle depend only on the key.
    subkeys = []
    total = 0
    for _ in range(_ROUNDS):
        first = (total + k[total & 3]) & _MASK
        total = (total + _DELTA) & _MASK
        subkeys.append((first, (total + k[(total >> 11) & 3]) & _MASK))
    high = (nonce >> 32) & _MASK
    nblocks = (length + 7) // 8
    words = []
    for block in range(counter, counter + nblocks):
        v0 = high
        v1 = (nonce ^ block) & _MASK
        for first, second in subkeys:
            v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ first)) & _MASK
            v1 = (v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ second)) & _MASK
        words.append(v0)
        words.append(v1)
    return struct.pack(f">{2 * nblocks}I", *words), (key, nonce, counter + nblocks)


_STREAM = Keystream(_material, _start, _advance)


def encrypt(key: bytes, data: bytes, nonce: int = DEFAULT_NONCE) -> bytes:
    """Encrypt ``data`` under ``key`` (16 bytes) in CTR mode."""
    if type(nonce) is not int:
        nonce = operator.index(nonce)
    return _STREAM.apply(key, nonce, data)


def decrypt(key: bytes, data: bytes, nonce: int = DEFAULT_NONCE) -> bytes:
    """CTR decryption is encryption with the same keystream."""
    return encrypt(key, data, nonce)
