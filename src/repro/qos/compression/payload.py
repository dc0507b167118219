"""Payload-level compression: mediator and server-side implementation.

Compressed values travel as marker maps ``{"__maqs_c__": codec,
"text": bool, "data": <compressed bytes>}`` — still ordinary CDR
values, so the ORB needs no changes (separation of concerns: this
characteristic lives entirely at the application integration layer).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro import codecs
from repro.core.mediator import Mediator
from repro.core.qos_skeleton import QoSImplementation
from repro.orb.exceptions import BAD_PARAM, MARSHAL

_MARKER = "__maqs_c__"
DEFAULT_CODEC = "lz"
DEFAULT_THRESHOLD = 256


def compress_value(value: Any, codec: str, threshold: int) -> Any:
    """Compress a str/bytes value if it is large enough to benefit."""
    if isinstance(value, str):
        raw = value.encode("utf-8")
        is_text = True
    elif isinstance(value, (bytes, bytearray)):
        raw = bytes(value)
        is_text = False
    else:
        return value
    if len(raw) < threshold:
        return value
    compress, _ = codecs.get_codec(codec)
    packed = compress(raw)
    if len(packed) >= len(raw):
        return value
    return {_MARKER: codec, "text": is_text, "data": packed}


def is_compressed(value: Any) -> bool:
    return isinstance(value, dict) and _MARKER in value


def decompress_value(value: Any) -> Any:
    """Restore a marker map to its original value; pass others through.

    A marker map that cannot be restored (a codec name that is not a
    string, missing or non-bytes data, an unknown codec, corrupt data,
    text that is not UTF-8) raises ``MARSHAL``.
    """
    if not is_compressed(value):
        return value
    codec = value[_MARKER]
    data = value.get("data")
    if type(codec) is not str or not isinstance(data, (bytes, bytearray)):
        raise MARSHAL(
            f"malformed compressed value: codec {type(codec).__name__}, "
            f"data {type(data).__name__}"
        )
    try:
        _, decompress = codecs.get_codec(codec)
        raw = decompress(data)
        return raw.decode("utf-8") if value.get("text") else raw
    except ValueError as error:  # includes UnicodeDecodeError
        raise MARSHAL(f"cannot restore {codec!r} value: {error}") from error


class CompressionMediator(Mediator):
    """Compress outgoing payloads; restore incoming results."""

    characteristic = "Compression"

    def __init__(
        self, codec: str = DEFAULT_CODEC, threshold: int = DEFAULT_THRESHOLD
    ) -> None:
        super().__init__()
        self.codec = codec
        self.threshold = threshold
        self.bytes_before = 0
        self.bytes_after = 0

    def before_request(
        self, stub: Any, operation: str, args: Tuple[Any, ...]
    ) -> Tuple[str, Tuple[Any, ...]]:
        clock = stub._orb.clock
        transformed = []
        for value in args:
            packed = compress_value(value, self.codec, self.threshold)
            if is_compressed(packed):
                original = len(value) if isinstance(value, (bytes, bytearray)) else len(
                    value.encode("utf-8")
                )
                self.bytes_before += original
                self.bytes_after += len(packed["data"])
                clock.advance(codecs.cpu_cost(self.codec, original))
            transformed.append(packed)
        return operation, tuple(transformed)

    def after_reply(self, stub: Any, operation: str, result: Any) -> Any:
        if is_compressed(result):
            restored = decompress_value(result)
            stub._orb.clock.advance(
                codecs.cpu_cost(result[_MARKER], len(result["data"]))
            )
            original = (
                len(restored)
                if isinstance(restored, (bytes, bytearray))
                else len(restored.encode("utf-8"))
            )
            self.bytes_before += original
            self.bytes_after += len(result["data"])
            return restored
        return result

    def observed_ratio(self) -> float:
        if self.bytes_before == 0:
            return 1.0
        return self.bytes_after / self.bytes_before


class CompressionImpl(QoSImplementation):
    """Server side: restore arguments, compress large results."""

    characteristic = "Compression"

    def __init__(
        self, codec: str = DEFAULT_CODEC, threshold: int = DEFAULT_THRESHOLD
    ) -> None:
        self.codec = codec
        self.threshold = threshold
        self.bytes_before = 0
        self.bytes_after = 0

    # QoS parameter accessors.
    def get_codec(self) -> str:
        return self.codec

    def set_codec(self, value: str) -> None:
        if value not in codecs.CODECS:
            raise BAD_PARAM(
                f"unknown codec {value!r}; available {sorted(codecs.CODECS)}"
            )
        self.codec = value

    def get_threshold(self) -> int:
        return self.threshold

    def set_threshold(self, value: int) -> None:
        if value < 0:
            raise BAD_PARAM("threshold must be non-negative")
        self.threshold = int(value)

    def observed_ratio(self) -> float:
        if self.bytes_before == 0:
            return 1.0
        return self.bytes_after / self.bytes_before

    # Weaving hooks.
    def prolog(
        self,
        servant: Any,
        operation: str,
        args: Tuple[Any, ...],
        contexts: Dict[str, Any],
    ) -> Optional[Tuple[Any, ...]]:
        if not any(is_compressed(value) for value in args):
            return None
        return tuple(decompress_value(value) for value in args)

    def epilog(
        self,
        servant: Any,
        operation: str,
        result: Any,
        contexts: Dict[str, Any],
    ) -> Any:
        packed = compress_value(result, self.codec, self.threshold)
        if is_compressed(packed):
            original = len(result) if isinstance(result, (bytes, bytearray)) else len(
                result.encode("utf-8")
            )
            self.bytes_before += original
            self.bytes_after += len(packed["data"])
        return packed
