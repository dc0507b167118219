"""An RC4-style stream cipher (alleged-RC4 / ARC4).

Key-scheduling plus PRGA as published in 1994.  Kept for era fidelity
— RC4 was the ubiquitous cheap stream cipher of CORBA-age systems.

Every message is XORed with the keystream from offset 0, so one key
always yields the same keystream: kept for wire compatibility, and not
secure (two messages under one key reveal the XOR of their plaintexts).
The keystream is memoised per key through
:class:`~repro.ciphers.keystream.Keystream` (bounded; see there), which
keeps the PRGA state ``(S, i, j)`` where its stored prefix ends.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.ciphers.keystream import Keystream

_State = Tuple[bytes, int, int]


def _material(key: bytes) -> bytes:
    if not key:
        raise ValueError("ARC4 key must not be empty")
    # The key schedule reads key[i % len(key)] for i < 256 only.
    return key[:256]


def _start(key: bytes, nonce: Any) -> _State:
    # Key-scheduling algorithm.
    state = list(range(256))
    j = 0
    for i, k in enumerate((key * (256 // len(key) + 1))[:256]):
        si = state[i]
        j = (j + si + k) & 0xFF
        state[i] = state[j]
        state[j] = si
    return bytes(state), 0, 0


def _advance(start: _State, length: int) -> Tuple[bytes, _State]:
    # Pseudo-random generation algorithm, on a private copy of S.
    packed, i, j = start
    state = list(packed)
    out = bytearray(length)
    for index in range(length):
        i = (i + 1) & 0xFF
        si = state[i]
        j = (j + si) & 0xFF
        sj = state[j]
        state[i] = sj
        state[j] = si
        out[index] = state[(si + sj) & 0xFF]
    return bytes(out), (bytes(state), i, j)


_STREAM = Keystream(_material, _start, _advance)


def encrypt(key: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the ARC4 keystream for ``key``."""
    return _STREAM.apply(key, None, data)


def decrypt(key: bytes, data: bytes) -> bytes:
    """Stream-cipher decryption equals encryption."""
    return _STREAM.apply(key, None, data)
