"""CDR-style marshalling.

A Common Data Representation encoder/decoder in the spirit of CORBA
CDR: big-endian primitives with natural alignment, length-prefixed
strings and sequences, and a tagged ``any`` encoding for dynamically
typed values (used by the DII and by the GIOP bodies of this ORB).

The encoding is self-contained — both ends of the simulated wire
really do run through these byte buffers, so marshalling bugs fail
loudly rather than being papered over by passing Python objects
around.

Hot-path layout (this module is the single biggest cost in every
benchmark, so the implementation is tuned):

- the encoder appends into one ``bytearray`` through module-level
  precompiled :class:`struct.Struct` instances — no chunk list, no
  per-call format parsing, one ``bytes()`` copy at :meth:`getvalue`;
- the decoder scans an immutable ``bytes`` buffer (a ``memoryview`` or
  ``bytearray`` input is copied once, on construction), so strings
  decode straight from a ``bytes`` slice — about 3x cheaper than
  ``str(memoryview_slice, "utf-8")`` — and octet payloads are the
  slice itself;
- homogeneous sequences of floats/ints batch through one repeated
  ``struct`` format instead of n tagged writes.  The batched bytes are
  **identical** to the tag-per-element encoding (each element keeps
  its tag octet and alignment padding), so the fast path is invisible
  on the wire; any non-conforming element falls back to the generic
  loop.
"""

from __future__ import annotations

import os
import struct
from functools import lru_cache
from typing import Any, Callable, Dict, List, Tuple

from repro.orb import _cdr_fast
from repro.orb.exceptions import MARSHAL
from repro.perf.counters import COUNTERS

#: Whether ``write_any``/``read_any`` route through the flat codec in
#: :mod:`repro.orb._cdr_fast` (optionally mypyc-compiled) instead of
#: the method-per-element implementation below.  Both emit and accept
#: identical bytes; the flag exists for the benchmark's
#: compiled-vs-interpreted comparison and as a debugging escape hatch.
_USE_FAST = os.environ.get("REPRO_CDR_FAST", "1") != "0"

#: "compiled" when the flat codec was built with mypyc, else "python".
FAST_IMPL = (
    "compiled"
    if getattr(_cdr_fast, "__file__", "").endswith((".so", ".pyd"))
    else "python"
)


def use_fast_path(enabled: bool) -> bool:
    """Toggle the flat ``any`` codec at runtime; returns the old value."""
    global _USE_FAST
    previous = _USE_FAST
    _USE_FAST = bool(enabled)
    return previous

# Type tags for the `any` encoding.
TAG_NULL = 0
TAG_BOOLEAN = 1
TAG_OCTET = 2
TAG_SHORT = 3
TAG_USHORT = 4
TAG_LONG = 5
TAG_ULONG = 6
TAG_LONGLONG = 7
TAG_DOUBLE = 8
TAG_STRING = 9
TAG_OCTETS = 10
TAG_SEQUENCE = 11
TAG_MAP = 12
TAG_FLOAT = 13
TAG_BIGNUM = 14

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# Precompiled primitive formats: struct.Struct skips the per-call
# format-string parse and cache lookup that struct.pack pays.
_S_OCTET = struct.Struct(">B")
_S_SHORT = struct.Struct(">h")
_S_USHORT = struct.Struct(">H")
_S_LONG = struct.Struct(">i")
_S_ULONG = struct.Struct(">I")
_S_LONGLONG = struct.Struct(">q")
_S_FLOAT = struct.Struct(">f")
_S_DOUBLE = struct.Struct(">d")

#: Padding runs indexed by length (alignment never needs more than 7).
_PADDING = tuple(b"\x00" * n for n in range(8))

#: Minimum sequence length for the homogeneous batch fast path; below
#: this the type scan costs more than it saves.
_BATCH_MIN = 4

#: Batch chunk size — bounds the repeated-format cache (see below).
_BATCH_CHUNK = 512


@lru_cache(maxsize=None)
def _batch_struct(unit: str, count: int) -> struct.Struct:
    """A Struct for ``count`` repetitions of one tagged-element group.

    ``unit`` is e.g. ``"B7xd"``: tag octet, 7 pad bytes, the value —
    exactly the bytes the generic path emits for each element of an
    8-aligned homogeneous run.  The key space is bounded because
    callers chunk at :data:`_BATCH_CHUNK` repetitions.
    """
    return struct.Struct(">" + unit * count)


class CDREncoder:
    """Write values into a CDR byte buffer."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    # -- low-level ------------------------------------------------------

    def reset(self) -> "CDREncoder":
        """Clear the buffer for reuse, keeping its allocated capacity.

        The per-ORB wire pools recycle encoders through this instead of
        allocating a fresh ``bytearray`` per message.
        """
        del self._buf[:]
        return self

    def _align(self, boundary: int) -> None:
        buf = self._buf
        padding = -len(buf) % boundary
        if padding:
            buf += _PADDING[padding]

    def write_raw(self, data: bytes) -> None:
        """Append pre-encoded bytes verbatim (no alignment).

        Callers own the alignment invariant: the bytes must have been
        produced at the same buffer offset modulo 8 (GIOP's constant
        headers and the service-context cache guarantee this).
        """
        self._buf += data

    def mark(self) -> int:
        """Current buffer length; pairs with :meth:`bytes_since`."""
        return len(self._buf)

    def bytes_since(self, mark: int) -> bytes:
        """Copy of everything appended since ``mark`` was taken."""
        return bytes(self._buf[mark:])

    # -- primitives -----------------------------------------------------

    def write_octet(self, value: int) -> None:
        try:
            self._buf += _S_OCTET.pack(value)
        except (struct.error, TypeError) as error:
            raise MARSHAL(f"cannot pack {value!r} as '>B': {error}") from None

    def write_boolean(self, value: bool) -> None:
        self._buf.append(1 if value else 0)

    def write_short(self, value: int) -> None:
        buf = self._buf
        padding = -len(buf) % 2
        if padding:
            buf += b"\x00"
        try:
            buf += _S_SHORT.pack(value)
        except (struct.error, TypeError) as error:
            raise MARSHAL(f"cannot pack {value!r} as '>h': {error}") from None

    def write_ushort(self, value: int) -> None:
        buf = self._buf
        padding = -len(buf) % 2
        if padding:
            buf += b"\x00"
        try:
            buf += _S_USHORT.pack(value)
        except (struct.error, TypeError) as error:
            raise MARSHAL(f"cannot pack {value!r} as '>H': {error}") from None

    def write_long(self, value: int) -> None:
        buf = self._buf
        padding = -len(buf) % 4
        if padding:
            buf += _PADDING[padding]
        try:
            buf += _S_LONG.pack(value)
        except (struct.error, TypeError) as error:
            raise MARSHAL(f"cannot pack {value!r} as '>i': {error}") from None

    def write_ulong(self, value: int) -> None:
        buf = self._buf
        padding = -len(buf) % 4
        if padding:
            buf += _PADDING[padding]
        try:
            buf += _S_ULONG.pack(value)
        except (struct.error, TypeError) as error:
            raise MARSHAL(f"cannot pack {value!r} as '>I': {error}") from None

    def write_longlong(self, value: int) -> None:
        buf = self._buf
        padding = -len(buf) % 8
        if padding:
            buf += _PADDING[padding]
        try:
            buf += _S_LONGLONG.pack(value)
        except (struct.error, TypeError) as error:
            raise MARSHAL(f"cannot pack {value!r} as '>q': {error}") from None

    def write_float(self, value: float) -> None:
        buf = self._buf
        padding = -len(buf) % 4
        if padding:
            buf += _PADDING[padding]
        try:
            buf += _S_FLOAT.pack(value)
        except (struct.error, TypeError) as error:
            raise MARSHAL(f"cannot pack {value!r} as '>f': {error}") from None

    def write_double(self, value: float) -> None:
        buf = self._buf
        padding = -len(buf) % 8
        if padding:
            buf += _PADDING[padding]
        try:
            buf += _S_DOUBLE.pack(value)
        except (struct.error, TypeError) as error:
            raise MARSHAL(f"cannot pack {value!r} as '>d': {error}") from None

    def write_string(self, value: str) -> None:
        if not isinstance(value, str):
            raise MARSHAL(f"expected str, got {type(value).__name__}")
        data = value.encode("utf-8")
        buf = self._buf
        padding = -len(buf) % 4
        if padding:
            buf += _PADDING[padding]
        buf += _S_ULONG.pack(len(data))
        buf += data

    def write_octets(self, value: bytes) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise MARSHAL(f"expected bytes, got {type(value).__name__}")
        buf = self._buf
        padding = -len(buf) % 4
        if padding:
            buf += _PADDING[padding]
        buf += _S_ULONG.pack(len(value))
        buf += value

    # -- any --------------------------------------------------------------

    def write_any(self, value: Any) -> None:
        """Encode a dynamically typed value with a leading type tag.

        Python natives map onto the widest safe IDL type: ``int`` →
        long long, ``float`` → double.  Lists/tuples become sequences,
        dicts (string-keyed) become maps.
        """
        if _USE_FAST:
            _cdr_fast.write_any(self._buf, value, _BATCH_MIN)
            return
        writer = _ANY_WRITERS.get(type(value))
        if writer is not None:
            writer(self, value)
        else:
            self._write_any_slow(value)

    # Exact-type handlers (dispatched from _ANY_WRITERS).  Subclasses of
    # the native types miss the table and take _write_any_slow, which
    # replays the original isinstance chain.

    def _write_any_none(self, value: None) -> None:
        self._buf.append(TAG_NULL)

    def _write_any_bool(self, value: bool) -> None:
        self._buf += b"\x01\x01" if value else b"\x01\x00"

    def _write_any_int(self, value: int) -> None:
        if _INT64_MIN <= value <= _INT64_MAX:
            self._buf.append(TAG_LONGLONG)
            self.write_longlong(value)
        else:
            self._write_any_bignum(value)

    def _write_any_bignum(self, value: int) -> None:
        # Arbitrary-precision integers (e.g. Diffie-Hellman public
        # values) travel as sign + magnitude octets.
        self._buf.append(TAG_BIGNUM)
        self.write_boolean(value < 0)
        magnitude = abs(value)
        self.write_octets(
            magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
        )

    def _write_any_float(self, value: float) -> None:
        self._buf.append(TAG_DOUBLE)
        self.write_double(value)

    def _write_any_str(self, value: str) -> None:
        self._buf.append(TAG_STRING)
        data = value.encode("utf-8")
        buf = self._buf
        padding = -len(buf) % 4
        if padding:
            buf += _PADDING[padding]
        buf += _S_ULONG.pack(len(data))
        buf += data

    def _write_any_octets(self, value: bytes) -> None:
        self._buf.append(TAG_OCTETS)
        self.write_octets(value)

    def _write_any_sequence(self, value: Any) -> None:
        buf = self._buf
        buf.append(TAG_SEQUENCE)
        padding = -len(buf) % 4
        if padding:
            buf += _PADDING[padding]
        length = len(value)
        buf += _S_ULONG.pack(length)
        if length >= _BATCH_MIN:
            first_type = type(value[0])
            if first_type is float:
                for item in value:
                    if type(item) is not float:
                        break
                else:
                    self._write_batch(value, _S_DOUBLE, "B7xd", TAG_DOUBLE)
                    return
            elif first_type is int:
                for item in value:
                    if type(item) is not int or not (
                        _INT64_MIN <= item <= _INT64_MAX
                    ):
                        break
                else:
                    self._write_batch(value, _S_LONGLONG, "B7xq", TAG_LONGLONG)
                    return
        for item in value:
            self.write_any(item)

    def _write_batch(
        self, value: Any, first_struct: struct.Struct, unit: str, tag: int
    ) -> None:
        """Emit a homogeneous 8-byte-element run, byte-identical to the
        generic loop: the first element settles 8-alignment, the rest
        are fixed 16-byte (tag + 7 pad + value) groups packed in bulk.
        """
        buf = self._buf
        buf.append(tag)
        padding = -len(buf) % 8
        if padding:
            buf += _PADDING[padding]
        buf += first_struct.pack(value[0])
        index = 1
        length = len(value)
        while index < length:
            count = min(length - index, _BATCH_CHUNK)
            args: List[Any] = []
            for item in value[index : index + count]:
                args.append(tag)
                args.append(item)
            buf += _batch_struct(unit, count).pack(*args)
            index += count
        COUNTERS.cdr_batch_encodes += 1

    def _write_any_map(self, value: Dict[str, Any]) -> None:
        buf = self._buf
        buf.append(TAG_MAP)
        padding = -len(buf) % 4
        if padding:
            buf += _PADDING[padding]
        buf += _S_ULONG.pack(len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise MARSHAL(f"map keys must be str, got {type(key).__name__}")
            # write_string inlined: map keys are the hottest strings on
            # the wire (every payload dict, every service context).
            data = key.encode("utf-8")
            padding = -len(buf) % 4
            if padding:
                buf += _PADDING[padding]
            buf += _S_ULONG.pack(len(data))
            buf += data
            self.write_any(item)

    def _write_any_slow(self, value: Any) -> None:
        """The original isinstance chain, for subclasses of the natives."""
        if value is None:
            self._buf.append(TAG_NULL)
        elif isinstance(value, bool):
            self._write_any_bool(value)
        elif isinstance(value, int):
            self._write_any_int(value)
        elif isinstance(value, float):
            self._write_any_float(value)
        elif isinstance(value, str):
            self._write_any_str(value)
        elif isinstance(value, (bytes, bytearray)):
            self._write_any_octets(value)
        elif isinstance(value, (list, tuple)):
            self._write_any_sequence(value)
        elif isinstance(value, dict):
            self._write_any_map(value)
        else:
            raise MARSHAL(f"cannot marshal value of type {type(value).__name__}")

    def getvalue(self) -> bytes:
        """The encoded buffer."""
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


#: Exact-type dispatch for write_any (bool before int matters only in
#: the slow path — dict dispatch on type() cannot confuse the two).
_ANY_WRITERS: Dict[type, Callable[["CDREncoder", Any], None]] = {
    type(None): CDREncoder._write_any_none,
    bool: CDREncoder._write_any_bool,
    int: CDREncoder._write_any_int,
    float: CDREncoder._write_any_float,
    str: CDREncoder._write_any_str,
    bytes: CDREncoder._write_any_octets,
    bytearray: CDREncoder._write_any_octets,
    list: CDREncoder._write_any_sequence,
    tuple: CDREncoder._write_any_sequence,
    dict: CDREncoder._write_any_map,
}


class CDRDecoder:
    """Read values back out of a CDR byte buffer.

    Accepts ``bytes``, ``bytearray`` or ``memoryview``.  Anything but
    ``bytes`` is copied into ``bytes`` once, here: every later read
    then slices an immutable buffer, so a string is one
    ``bytes.decode`` of its slice and :meth:`read_octets` returns the
    slice itself, and the caller may reuse its mutable buffer as soon
    as the decoder exists.
    """

    __slots__ = ("_buf", "_len", "_offset")

    def __init__(self, data: bytes) -> None:
        self._buf = data if type(data) is bytes else bytes(data)
        self._len = len(self._buf)
        self._offset = 0

    # -- low-level ------------------------------------------------------

    def _align(self, boundary: int) -> None:
        self._offset += -self._offset % boundary

    def _underrun(self, size: int, offset: int) -> MARSHAL:
        return MARSHAL(
            f"buffer underrun: need {size} bytes at {offset}, "
            f"have {self._len - offset}"
        )

    def _unpack(self, compiled: struct.Struct, alignment: int) -> Any:
        offset = self._offset
        offset += -offset % alignment
        end = offset + compiled.size
        if end > self._len:
            self._offset = offset
            raise self._underrun(compiled.size, offset)
        self._offset = end
        return compiled.unpack_from(self._buf, offset)[0]

    def read_raw(self, size: int) -> bytes:
        """The next ``size`` bytes verbatim (no alignment)."""
        offset = self._offset
        end = offset + size
        if end > self._len:
            raise self._underrun(size, offset)
        self._offset = end
        return self._buf[offset:end]

    # -- primitives -----------------------------------------------------

    def read_octet(self) -> int:
        offset = self._offset
        if offset >= self._len:
            raise self._underrun(1, offset)
        self._offset = offset + 1
        return self._buf[offset]

    def read_boolean(self) -> bool:
        return bool(self.read_octet())

    def read_short(self) -> int:
        return self._unpack(_S_SHORT, 2)

    def read_ushort(self) -> int:
        return self._unpack(_S_USHORT, 2)

    def read_long(self) -> int:
        return self._unpack(_S_LONG, 4)

    def read_ulong(self) -> int:
        # Inlined _unpack: sequence counts and length prefixes make this
        # the most-called aligned read on the wire path.
        offset = self._offset
        offset += -offset & 3
        end = offset + 4
        if end > self._len:
            self._offset = offset
            raise self._underrun(4, offset)
        self._offset = end
        return _S_ULONG.unpack_from(self._buf, offset)[0]

    def read_longlong(self) -> int:
        return self._unpack(_S_LONGLONG, 8)

    def read_float(self) -> float:
        return self._unpack(_S_FLOAT, 4)

    def read_double(self) -> float:
        return self._unpack(_S_DOUBLE, 8)

    def read_string(self) -> str:
        buf = self._buf
        size = self._len
        offset = self._offset
        offset += -offset & 3
        end = offset + 4
        if end > size:
            self._offset = offset
            raise self._underrun(4, offset)
        length = _S_ULONG.unpack_from(buf, offset)[0]
        offset = end
        end = offset + length
        if end > size:
            self._offset = offset
            raise MARSHAL(f"string of length {length} overruns buffer")
        try:
            value = buf[offset:end].decode()
        except UnicodeDecodeError as error:
            self._offset = offset
            raise MARSHAL(f"invalid UTF-8 string on the wire: {error}") from None
        self._offset = end
        return value

    def read_octets(self) -> bytes:
        buf = self._buf
        size = self._len
        offset = self._offset
        offset += -offset & 3
        end = offset + 4
        if end > size:
            self._offset = offset
            raise self._underrun(4, offset)
        length = _S_ULONG.unpack_from(buf, offset)[0]
        offset = end
        end = offset + length
        if end > size:
            self._offset = offset
            raise MARSHAL(f"octet sequence of length {length} overruns buffer")
        self._offset = end
        return buf[offset:end]

    # -- any --------------------------------------------------------------

    def read_any(self) -> Any:
        if _USE_FAST:
            value, self._offset = _cdr_fast.read_any(
                self._buf, self._offset, self._len, _BATCH_MIN
            )
            return value
        offset = self._offset
        if offset >= self._len:
            raise self._underrun(1, offset)
        self._offset = offset + 1
        tag = self._buf[offset]
        reader = _ANY_READERS.get(tag)
        if reader is None:
            raise MARSHAL(f"unknown any tag: {tag}")
        return reader(self)

    def _read_any_null(self) -> None:
        return None

    def _read_any_bignum(self) -> int:
        negative = self.read_boolean()
        magnitude = int.from_bytes(self.read_octets(), "big")
        return -magnitude if negative else magnitude

    def _read_any_sequence(self) -> List[Any]:
        length = self.read_ulong()
        if length >= _BATCH_MIN and self._offset < self._len:
            first_tag = self._buf[self._offset]
            if first_tag == TAG_DOUBLE:
                result = self._read_batch(length, _S_DOUBLE, "B7xd", TAG_DOUBLE)
                if result is not None:
                    return result
            elif first_tag == TAG_LONGLONG:
                result = self._read_batch(length, _S_LONGLONG, "B7xq", TAG_LONGLONG)
                if result is not None:
                    return result
        return [self.read_any() for _ in range(length)]

    def _read_batch(
        self, length: int, first_struct: struct.Struct, unit: str, tag: int
    ) -> Any:
        """Bulk-decode a homogeneous run; None means fall back (the run
        turned out to be heterogeneous and the offset is rewound)."""
        start = self._offset
        self._offset = start + 1  # consume the peeked tag octet
        first = self._unpack(first_struct, 8)
        out = [first]
        offset = self._offset
        remaining = length - 1
        buf = self._buf
        while remaining:
            count = min(remaining, _BATCH_CHUNK)
            compiled = _batch_struct(unit, count)
            if offset + compiled.size > self._len:
                self._offset = start
                return None  # underrun or trailing mixed types: re-scan
            flat = compiled.unpack_from(buf, offset)
            if flat[0::2].count(tag) != count:
                self._offset = start
                return None  # mixed element types: generic loop decodes
            out.extend(flat[1::2])
            offset += compiled.size
            remaining -= count
        self._offset = offset
        COUNTERS.cdr_batch_decodes += 1
        return out

    def _read_any_map(self) -> Dict[str, Any]:
        length = self.read_ulong()
        buf = self._buf
        size = self._len
        result: Dict[str, Any] = {}
        for _ in range(length):
            # read_string inlined: map keys are the hottest strings on
            # the wire (every payload dict, every service context).
            offset = self._offset
            offset += -offset & 3
            end = offset + 4
            if end > size:
                self._offset = offset
                raise self._underrun(4, offset)
            key_length = _S_ULONG.unpack_from(buf, offset)[0]
            offset = end
            end = offset + key_length
            if end > size:
                self._offset = offset
                raise MARSHAL(f"string of length {key_length} overruns buffer")
            try:
                key = buf[offset:end].decode()
            except UnicodeDecodeError as error:
                self._offset = offset
                raise MARSHAL(
                    f"invalid UTF-8 string on the wire: {error}"
                ) from None
            self._offset = end
            result[key] = self.read_any()
        return result

    @property
    def remaining(self) -> int:
        """Bytes not yet consumed."""
        return self._len - self._offset

    def at_end(self) -> bool:
        return self._offset >= self._len


#: Tag dispatch for read_any.
_ANY_READERS: Dict[int, Callable[["CDRDecoder"], Any]] = {
    TAG_NULL: CDRDecoder._read_any_null,
    TAG_BOOLEAN: CDRDecoder.read_boolean,
    TAG_OCTET: CDRDecoder.read_octet,
    TAG_SHORT: CDRDecoder.read_short,
    TAG_USHORT: CDRDecoder.read_ushort,
    TAG_LONG: CDRDecoder.read_long,
    TAG_ULONG: CDRDecoder.read_ulong,
    TAG_LONGLONG: CDRDecoder.read_longlong,
    TAG_FLOAT: CDRDecoder.read_float,
    TAG_DOUBLE: CDRDecoder.read_double,
    TAG_STRING: CDRDecoder.read_string,
    TAG_OCTETS: CDRDecoder.read_octets,
    TAG_BIGNUM: CDRDecoder._read_any_bignum,
    TAG_SEQUENCE: CDRDecoder._read_any_sequence,
    TAG_MAP: CDRDecoder._read_any_map,
}


def encode_values(*values: Any) -> bytes:
    """Encode a tuple of values as a counted sequence of anys."""
    encoder = CDREncoder()
    encoder.write_ulong(len(values))
    for value in values:
        encoder.write_any(value)
    return encoder.getvalue()


def decode_values(data: bytes) -> Tuple[Any, ...]:
    """Inverse of :func:`encode_values`."""
    decoder = CDRDecoder(data)
    count = decoder.read_ulong()
    return tuple(decoder.read_any() for _ in range(count))
