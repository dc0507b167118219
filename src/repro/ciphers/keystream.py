"""One keystream memo and one XOR, shared by ARC4 and XTEA-CTR.

Both stream ciphers restart their keystream at offset 0 for every
message (kept for wire compatibility with earlier releases; reusing a
keystream this way is **not** secure), so the keystream is a pure
function of ``(cipher, key, nonce)``.  Between the rare key changes of
Section 3.2 one session key encrypts every message, so the key schedule
and the keystream are computed once per key and reused:

- the memo keeps, per ``(cipher, key material, nonce)``, a prefix of the
  keystream and the generator state where that prefix ends (ARC4: the
  permutation and its two indices; XTEA-CTR: the block counter).  A
  longer message extends the prefix from that state, at least doubling
  it, up to :data:`PREFIX_CAP` bytes;
- past the cap a message takes the stored prefix and generates the rest
  from the stored end state, without keeping it; nothing is ever
  regenerated from offset 0 while its key is memoised;
- at most :data:`MAX_KEYS` entries are kept; the oldest goes first.  An
  entry holds at most 16 KiB of keystream, 256 bytes of key material
  and a 256-byte ARC4 permutation, so the memo never holds more than
  about 32 × 17.2 KiB ≈ 0.55 MiB.

Each message is then one slice and one XOR of two Python integers.
Published entries are immutable tuples and are replaced by one dict
store under a lock, so threads sharing a key never see a half-built
entry.  Only exact ``bytes`` probe the memo; other key types are copied
to ``bytes`` first, so a ``bytes`` subclass with its own ``__eq__`` or a
``bytearray`` mutated after use never selects another key's stream.
:func:`forget` drops a key's entries when its session ends.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Tuple

#: Keystream bytes kept per entry (a multiple of the XTEA block).
PREFIX_CAP = 16 * 1024
#: Entries kept at once; see the module docstring for the memory bound.
MAX_KEYS = 32

#: (generator, key material, nonce) -> (keystream prefix, state at its end).
_MEMO: Dict[Tuple[Any, bytes, Any], Tuple[bytes, Any]] = {}
_LOCK = threading.Lock()


def _as_key(key: Any) -> bytes:
    if isinstance(key, (bytes, bytearray, memoryview)):
        return bytes(key)
    raise TypeError(f"expected a bytes key, got {type(key).__name__}")


class Keystream:
    """A cipher's keystream generator, applied through the shared memo.

    ``material(key)`` validates a key and returns the bytes its schedule
    reads; ``start(material, nonce)`` returns the state at offset 0;
    ``advance(state, n)`` returns at least ``n`` keystream bytes and the
    state after them, without changing ``state``.
    """

    __slots__ = ("material", "start", "advance")

    def __init__(
        self,
        material: Callable[[bytes], bytes],
        start: Callable[[bytes, Any], Any],
        advance: Callable[[Any, int], Tuple[bytes, Any]],
    ) -> None:
        self.material = material
        self.start = start
        self.advance = advance

    def apply(self, key: Any, nonce: Any, data: Any) -> bytes:
        """XOR ``data`` with the keystream of ``key`` and ``nonce``."""
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError(f"expected bytes, got {type(data).__name__}")
        if type(key) is not bytes:
            key = _as_key(key)
        slot = (self, self.material(key), nonce)
        size = len(data)
        entry = _MEMO.get(slot)
        if entry is not None and len(entry[0]) >= size:
            stream = entry[0]
        else:
            stream = self._extend(slot, entry, size)
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(stream[:size], "big")
        ).to_bytes(size, "big")

    def _extend(self, slot: Tuple[Any, bytes, Any], entry: Any, size: int) -> bytes:
        if entry is None:
            prefix, state = b"", self.start(slot[1], slot[2])
        else:
            prefix, state = entry
        if len(prefix) < PREFIX_CAP:
            want = min(PREFIX_CAP, max(size, 2 * len(prefix))) - len(prefix)
            more, state = self.advance(state, want)
            prefix += more
            _publish(slot, prefix, state)
        if len(prefix) >= size:
            return prefix
        return prefix + self.advance(state, size - len(prefix))[0]


def _publish(slot: Tuple[Any, bytes, Any], prefix: bytes, state: Any) -> None:
    with _LOCK:
        current = _MEMO.get(slot)
        if current is None:
            if len(_MEMO) >= MAX_KEYS:
                del _MEMO[next(iter(_MEMO))]
        elif len(current[0]) >= len(prefix):
            return
        _MEMO[slot] = (prefix, state)


def forget(key: Any) -> None:
    """Drop every memoised keystream of ``key``, under any cipher or nonce."""
    if type(key) is not bytes:
        key = _as_key(key)
    with _LOCK:
        for slot in list(_MEMO):
            try:
                same = slot[0].material(key) == slot[1]
            except ValueError:  # not a valid key for that cipher
                continue
            if same:
                del _MEMO[slot]


__all__ = ["MAX_KEYS", "PREFIX_CAP", "Keystream", "forget"]
