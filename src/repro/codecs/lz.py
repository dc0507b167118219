"""An LZ77-style sliding-window codec.

Tokens:

- literal: ``0x00`` followed by one byte.
- match: ``0x01`` followed by a 2-byte big-endian offset (1..65535
  back) and a 1-byte length (MIN_MATCH..MIN_MATCH+254).

A hash table over 3-byte prefixes keeps compression roughly linear:
it maps each prefix to the most recent token start that had it, and
each token start probes it once.  The format favours clarity over
ratio — it is a real codec with a real speed/ratio trade-off, which is
all the E6 experiments need.

Both directions cost Python work per token, not per byte.  Compress
measures a match by comparing slices (the longest allowed match, up
to 258 bytes, first; then a binary search for the common prefix);
decompress copies a match with one slice, or repeats its period when
the match overlaps its own output.  The output bytes are the same as
those of a byte-at-a-time match loop, so the format and every
compressed size are unchanged.
"""

from __future__ import annotations

_WINDOW = 65535
_MIN_MATCH = 4
_MAX_MATCH = _MIN_MATCH + 254

_TOKEN_LITERAL = 0x00
_TOKEN_MATCH = 0x01


def compress(data: bytes) -> bytes:
    """LZ77-compress ``data``."""
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    out = bytearray()
    index = 0
    length = len(data)
    # prefix hash -> most recent position
    table: dict = {}
    while index < length:
        best_length = 0
        best_offset = 0
        if index + _MIN_MATCH <= length:
            key = data[index : index + 3]
            candidate = table.get(key)
            if (
                candidate is not None
                and index - candidate <= _WINDOW
                and data[candidate + 3] == data[index + 3]
            ):
                # The 3-byte key and the 4th byte agree, so the match
                # is at least _MIN_MATCH long.  Take all ``limit``
                # bytes if the slices agree; otherwise binary-search
                # the common prefix length, comparing only the
                # untested part of each slice.
                limit = min(_MAX_MATCH, length - index)
                if data[candidate : candidate + limit] == data[index : index + limit]:
                    best_length = limit
                else:
                    low, high = _MIN_MATCH, limit
                    while high - low > 1:
                        middle = (low + high) // 2
                        if (
                            data[candidate + low : candidate + middle]
                            == data[index + low : index + middle]
                        ):
                            low = middle
                        else:
                            high = middle
                    best_length = low
                best_offset = index - candidate
            table[key] = index
        if best_length:
            out.append(_TOKEN_MATCH)
            out.append((best_offset >> 8) & 0xFF)
            out.append(best_offset & 0xFF)
            out.append(best_length - _MIN_MATCH)
            index += best_length
        else:
            out.append(_TOKEN_LITERAL)
            out.append(data[index])
            index += 1
    return bytes(out)


def decompress(data: bytes) -> bytes:
    """Invert :func:`compress`."""
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"expected bytes, got {type(data).__name__}")
    out = bytearray()
    index = 0
    length = len(data)
    while index < length:
        token = data[index]
        index += 1
        if token == _TOKEN_LITERAL:
            if index >= length:
                raise ValueError("truncated literal token")
            out.append(data[index])
            index += 1
        elif token == _TOKEN_MATCH:
            if index + 3 > length:
                raise ValueError("truncated match token")
            offset = (data[index] << 8) | data[index + 1]
            match_length = data[index + 2] + _MIN_MATCH
            index += 3
            if offset == 0 or offset > len(out):
                raise ValueError(f"bad match offset {offset}")
            start = len(out) - offset
            if offset >= match_length:
                out += out[start : start + match_length]
            else:
                # Overlapping match: the copy repeats the last
                # ``offset`` bytes until it is ``match_length`` long.
                period = out[start:]
                out += (period * (match_length // offset + 1))[:match_length]
        else:
            raise ValueError(f"unknown token {token}")
    return bytes(out)
