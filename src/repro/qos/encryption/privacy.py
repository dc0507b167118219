"""Payload-level encryption: mediator, server impl and key agreement."""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional, Tuple

from repro import ciphers
from repro.ciphers.keyex import KeyExchange
from repro.core.mediator import CHARACTERISTIC_CONTEXT, Mediator
from repro.core.qos_skeleton import QoSImplementation
from repro.orb.exceptions import BAD_PARAM, NO_PERMISSION

_MARKER = "__maqs_e__"
DEFAULT_CIPHER = "xtea-ctr"

_key_counter = itertools.count(1)


def encrypt_value(value: Any, cipher: str, key_id: str, key: bytes) -> Any:
    """Encrypt a str/bytes value into a marker map; pass others through."""
    if isinstance(value, str):
        raw = value.encode("utf-8")
        is_text = True
    elif isinstance(value, (bytes, bytearray)):
        raw = bytes(value)
        is_text = False
    else:
        return value
    encrypt, _ = ciphers.get_cipher(cipher)
    return {
        _MARKER: cipher,
        "key_id": key_id,
        "text": is_text,
        "data": encrypt(key, raw),
    }


def is_encrypted(value: Any) -> bool:
    return isinstance(value, dict) and _MARKER in value


def decrypt_value(value: Any, keys: Dict[str, bytes]) -> Any:
    """Restore a marker map using the session-key table."""
    if not is_encrypted(value):
        return value
    key_id = value["key_id"]
    key = keys.get(key_id)
    if key is None:
        raise NO_PERMISSION(f"no session key installed under {key_id!r}")
    _, decrypt = ciphers.get_cipher(value[_MARKER])
    raw = decrypt(key, value["data"])
    return raw.decode("utf-8") if value.get("text") else raw


class EncryptionMediator(Mediator):
    """Encrypt outgoing payloads; decrypt incoming results."""

    characteristic = "Encryption"

    def __init__(self, cipher: str = DEFAULT_CIPHER, seed: int = 0) -> None:
        super().__init__()
        self.cipher = cipher
        self.key_id = ""
        self._seed = seed
        self._keys: Dict[str, bytes] = {}
        self.handshakes = 0

    # -- key agreement (QoS-to-QoS via the peer operation) ----------------

    def establish_key(self, stub: Any) -> str:
        """Run a DH exchange with the server's QoS implementation.

        Returns the new key id and makes it current — calling again
        rotates the key on the fly (Section 3.2).
        """
        endpoint = KeyExchange(seed=self._seed)
        self._seed += 1
        key_id = f"sess-{next(_key_counter)}"
        server_public = stub._invoke(
            "exchange_key",
            (key_id, endpoint.public_value),
            extra_contexts={CHARACTERISTIC_CONTEXT: self.characteristic},
        )
        self._keys[key_id] = endpoint.shared_key(server_public)
        self.key_id = key_id
        self.handshakes += 1
        return key_id

    def _current_key(self) -> bytes:
        if not self.key_id or self.key_id not in self._keys:
            raise NO_PERMISSION(
                "no session key established; call establish_key(stub) first"
            )
        return self._keys[self.key_id]

    # -- interception -----------------------------------------------------------

    def before_request(
        self, stub: Any, operation: str, args: Tuple[Any, ...]
    ) -> Tuple[str, Tuple[Any, ...]]:
        if operation == "exchange_key":
            return operation, args  # the handshake itself stays clear
        key = self._current_key()
        clock = stub._orb.clock
        transformed = []
        for value in args:
            sealed = encrypt_value(value, self.cipher, self.key_id, key)
            if is_encrypted(sealed):
                clock.advance(
                    ciphers.cpu_cost(self.cipher, len(sealed["data"]))
                )
            transformed.append(sealed)
        return operation, tuple(transformed)

    def after_reply(self, stub: Any, operation: str, result: Any) -> Any:
        if is_encrypted(result):
            stub._orb.clock.advance(
                ciphers.cpu_cost(result[_MARKER], len(result["data"]))
            )
            return decrypt_value(result, self._keys)
        return result


class EncryptionImpl(QoSImplementation):
    """Server side: key store, peer exchange, prolog/epilog crypto."""

    characteristic = "Encryption"

    def __init__(self, cipher: str = DEFAULT_CIPHER, seed: int = 0x5A5A) -> None:
        self.cipher = cipher
        self.key_id = ""
        self._seed = seed
        self._keys: Dict[str, bytes] = {}

    # QoS parameter accessors.
    def get_cipher(self) -> str:
        return self.cipher

    def set_cipher(self, value: str) -> None:
        if value not in ciphers.CIPHERS:
            raise BAD_PARAM(
                f"unknown cipher {value!r}; available {sorted(ciphers.CIPHERS)}"
            )
        self.cipher = value

    def get_key_id(self) -> str:
        return self.key_id

    # Peer operation: the server half of the DH agreement.
    def exchange_key(self, key_id: str, public_value: int) -> int:
        endpoint = KeyExchange(seed=self._seed)
        self._seed += 1
        try:
            self._keys[key_id] = endpoint.shared_key(public_value)
        except (TypeError, ValueError) as error:
            raise BAD_PARAM(f"bad peer public value: {error}") from error
        self.key_id = key_id
        return endpoint.public_value

    # Management operation.
    def drop_key(self, key_id: str) -> None:
        self._keys.pop(key_id, None)
        if self.key_id == key_id:
            self.key_id = ""

    # Weaving hooks.
    def prolog(
        self,
        servant: Any,
        operation: str,
        args: Tuple[Any, ...],
        contexts: Dict[str, Any],
    ) -> Optional[Tuple[Any, ...]]:
        if not any(is_encrypted(value) for value in args):
            return None
        return tuple(decrypt_value(value, self._keys) for value in args)

    def epilog(
        self,
        servant: Any,
        operation: str,
        result: Any,
        contexts: Dict[str, Any],
    ) -> Any:
        if not self.key_id or self.key_id not in self._keys:
            return result
        return encrypt_value(
            result, self.cipher, self.key_id, self._keys[self.key_id]
        )
