"""LZ against a byte-at-a-time reference: same bytes, same errors.

``reference_compress`` and ``reference_decompress`` are the codec as it
was written first, extending a match and copying it one byte at a time.
The slice-based codec must produce exactly their output on any input,
and on any (possibly corrupt) compressed input it must return the same
bytes or raise ``ValueError`` with the same text.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs import lz

_WINDOW = 65535
_MIN_MATCH = 4
_MAX_MATCH = _MIN_MATCH + 254

_TOKEN_LITERAL = 0x00
_TOKEN_MATCH = 0x01


def reference_compress(data: bytes) -> bytes:
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
            if candidate is not None and index - candidate <= _WINDOW:
                match_length = 0
                limit = min(_MAX_MATCH, length - index)
                while (
                    match_length < limit
                    and data[candidate + match_length] == data[index + match_length]
                ):
                    match_length += 1
                if match_length >= _MIN_MATCH:
                    best_length = match_length
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


def reference_decompress(data: bytes) -> bytes:
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
            for position in range(match_length):
                out.append(out[start + position])
        else:
            raise ValueError(f"unknown token {token}")
    return bytes(out)


def _outcome(decompress, data):
    """``("ok", bytes)`` or ``("error", message)`` of one decompress call."""
    try:
        return "ok", decompress(data)
    except ValueError as error:
        return "error", str(error)


def _small_alphabet():
    """Bytes drawn from 1–4 distinct symbols: many long, overlapping matches."""
    return st.lists(st.integers(0, 255), min_size=1, max_size=4).flatmap(
        lambda symbols: st.lists(
            st.sampled_from(symbols), max_size=3000
        ).map(bytes)
    )


def _token_streams():
    """Streams of literal and match tokens, valid or not."""
    literal = st.integers(0, 255).map(lambda b: bytes((_TOKEN_LITERAL, b)))
    match = st.tuples(st.integers(0, 300), st.integers(0, 255)).map(
        lambda m: bytes((_TOKEN_MATCH, m[0] >> 8, m[0] & 0xFF, m[1]))
    )
    return st.lists(st.one_of(literal, literal, match), max_size=40).map(
        b"".join
    )


@given(st.binary(max_size=4096))
@settings(max_examples=150, deadline=None)
def test_compress_matches_reference_on_any_bytes(data):
    assert lz.compress(data) == reference_compress(data)


@given(_small_alphabet())
@settings(max_examples=150, deadline=None)
def test_compress_matches_reference_on_small_alphabets(data):
    packed = lz.compress(data)
    assert packed == reference_compress(data)
    assert lz.decompress(packed) == data


@given(st.binary(max_size=512))
@settings(max_examples=300, deadline=None)
def test_decompress_of_arbitrary_bytes_matches_reference(data):
    assert _outcome(lz.decompress, data) == _outcome(reference_decompress, data)


@given(_token_streams(), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_decompress_of_token_streams_matches_reference(stream, cut):
    # Cutting 0–3 bytes off the end truncates the last token.
    data = stream[: len(stream) - cut] if cut else stream
    assert _outcome(lz.decompress, data) == _outcome(reference_decompress, data)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\x00", "truncated literal token"),
        (b"\x00a\x00", "truncated literal token"),
        (b"\x00a\x01", "truncated match token"),
        (b"\x00a\x01\x00\x01", "truncated match token"),
        (b"\x00a\x01\x00\x00\x00", "bad match offset 0"),
        (b"\x00a\x00b\x01\x00\x03\x00", "bad match offset 3"),
        (b"\x01\x00\x05\x00", "bad match offset 5"),
        (b"\x00a\x02", "unknown token 2"),
        (b"\xff", "unknown token 255"),
    ],
)
def test_corrupt_input_raises_the_reference_message(data, message):
    for decompress in (lz.decompress, reference_decompress):
        with pytest.raises(ValueError) as caught:
            decompress(data)
        assert str(caught.value) == message


@pytest.mark.parametrize("offset", [1, 2, 3, 7, 257, 258, 259])
def test_overlapping_and_exact_matches_copy_like_reference(offset):
    prefix = bytes(random.Random(offset).randrange(256) for _ in range(offset))
    for length_code in (0, 1, 100, 253, 254, 255):
        data = b"".join(bytes((_TOKEN_LITERAL, b)) for b in prefix)
        data += bytes((_TOKEN_MATCH, offset >> 8, offset & 0xFF, length_code))
        assert lz.decompress(data) == reference_decompress(data)


@pytest.mark.parametrize("seed", range(4))
def test_large_inputs_match_reference(seed):
    rng = random.Random(seed)
    words = [rng.randbytes(rng.randrange(1, 12)) for _ in range(40)]
    data = b"".join(rng.choice(words) for _ in range(20_000))[:80_000]
    packed = lz.compress(data)
    assert packed == reference_compress(data)
    assert lz.decompress(packed) == data
