"""From-scratch ciphers and key exchange for the privacy characteristic.

Section 6 lists "privacy through encryption" among the evaluated QoS
characteristics, and Section 3.2 names "on the fly change of
encryption keys" as a QoS-to-QoS communication.  These primitives are
real, reversible implementations written for this reproduction —
**not** audited cryptography; they stand in for the era's DES/RC4 with
honest CPU-cost and choreography behaviour.

- :mod:`repro.ciphers.xtea` — the XTEA block cipher in CTR mode.
- :mod:`repro.ciphers.arc4` — an RC4-style stream cipher.
- :mod:`repro.ciphers.keystream` — the keystream memo and XOR both
  share.  Each message restarts the keystream at offset 0, so the
  keystream is a function of ``(key, nonce)`` alone; that is kept for
  wire compatibility and is not secure.  It is memoised per key, at
  most 32 keys × 16 KiB (about 0.55 MiB in all), and :func:`forget`
  drops a key's keystreams when its session ends.
- :mod:`repro.ciphers.keyex` — finite-field Diffie-Hellman key
  agreement, driven over MAQS commands by the encryption mechanism.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.ciphers import arc4, xtea
from repro.ciphers.keystream import forget

#: name -> (encrypt, decrypt); both take (key: bytes, data: bytes).
Cipher = Tuple[Callable[[bytes, bytes], bytes], Callable[[bytes, bytes], bytes]]

CIPHERS: Dict[str, Cipher] = {
    "xtea-ctr": (xtea.encrypt, xtea.decrypt),
    "arc4": (arc4.encrypt, arc4.decrypt),
    "null": (lambda key, data: bytes(data), lambda key, data: bytes(data)),
}

#: Simulated CPU seconds per byte; block ciphers cost more than stream.
CPU_COST_PER_BYTE: Dict[str, float] = {
    "xtea-ctr": 80e-9,
    "arc4": 25e-9,
    "null": 0.0,
}


def get_cipher(name: str) -> Cipher:
    """Look up a cipher pair by name."""
    try:
        return CIPHERS[name]
    except KeyError:
        raise ValueError(
            f"unknown cipher {name!r}; available: {sorted(CIPHERS)}"
        ) from None


def cpu_cost(name: str, nbytes: int) -> float:
    """Simulated CPU seconds to de/encrypt ``nbytes`` with ``name``."""
    return CPU_COST_PER_BYTE.get(name, 0.0) * nbytes


__all__ = [
    "CIPHERS",
    "CPU_COST_PER_BYTE",
    "Cipher",
    "cpu_cost",
    "forget",
    "get_cipher",
]
