"""Golden codec corpus: the compressed bytes of LZ, RLE and delta, pinned.

Seeded inputs cover the empty input and 1–3 byte inputs, repeated UTF-8
phrases of 256 B to 8 KiB, small-alphabet random bytes, single-byte runs
around RLE's 130-byte run cap, periodic data whose period is shorter
than the match it makes (overlapping LZ matches), and one 70 000-byte
input in which LZ matches reach back exactly to the 65535-byte window
edge and run into the 258-byte length cap.  One SHA-256 over every
``compress`` output is pinned: compressed sizes set wire bytes, which
feed simulated time and every compression ratio, so any change that
moves a single output byte fails here.
"""

import hashlib
import random

from repro.codecs import delta, lz, rle

SEED = 20010416

CODECS = (("lz", lz), ("rle", rle), ("delta", delta))

PHRASES = (
    "The quick brown fox jumps over the lazy dog. ",
    "QoS κόσμος — compression for channels with small bandwidth ✓ ",
    "<item id='42'><name>widget</name><price>9.99</price></item>\n",
)

#: SHA-256 over the corpus outputs (see ``_corpus_digest``).
GOLDEN_DIGEST = "39d51d7f68ae74539470dfba22088e57374bab2d0b89b490442d257a2e360b6f"


def _window_edge_input(rng):
    """70 000 bytes whose repeats sit 65535 and 65536 bytes back.

    A 300-byte block at offset 0 recurs at offset 65535, so LZ's first
    match there has the largest offset the format allows and stops at
    the 258-byte cap.  A second block recurs 65536 bytes later, one byte
    past the window, and must not be matched at that distance.
    """
    block = rng.randbytes(300)
    other = rng.randbytes(300)
    data = bytearray(rng.randbytes(70_000))
    data[0:300] = block
    data[65_535 : 65_535 + 300] = block
    data[1_000:1_300] = other
    data[66_536:66_836] = other
    return bytes(data)


def _inputs():
    """Yield the corpus inputs in a fixed order."""
    rng = random.Random(SEED)
    yield b""
    for size in (1, 2, 3):
        yield rng.randbytes(size)
        yield b"a" * size
    for phrase in PHRASES:
        unit = phrase.encode("utf-8")
        for size in (256, 1000, 4096, 8192):
            yield (unit * (size // len(unit) + 1))[:size]
    for alphabet in (2, 3, 4, 16, 256):
        symbols = rng.randbytes(alphabet)
        for size in (64, 777, 4096):
            yield bytes(rng.choice(symbols) for _ in range(size))
    for run in (129, 130, 131, 1000):
        yield bytes([rng.randrange(256)]) * run
        yield rng.randbytes(5) + b"\x00" * run + rng.randbytes(5)
    for period in (1, 2, 3, 5, 7, 64, 255):
        unit = rng.randbytes(period)
        yield rng.randbytes(9) + unit * (600 // period + 1)
    yield _window_edge_input(rng)


def _corpus_digest():
    digest = hashlib.sha256()
    count = 0
    for data in _inputs():
        for name, codec in CODECS:
            packed = codec.compress(data)
            assert type(packed) is bytes
            assert codec.decompress(packed) == data
            digest.update(name.encode("ascii"))
            digest.update(len(packed).to_bytes(4, "big"))
            digest.update(packed)
            count += 1
    return digest.hexdigest(), count


def _lz_matches(packed):
    """``(offset, length)`` of every LZ match token in ``packed``."""
    matches = []
    index = 0
    while index < len(packed):
        if packed[index] == 0x01:
            offset = (packed[index + 1] << 8) | packed[index + 2]
            matches.append((offset, packed[index + 3] + 4))
            index += 4
        else:
            index += 2
    return matches


def test_golden_corpus_digest():
    digest, count = _corpus_digest()
    assert count == len(CODECS) * len(list(_inputs()))
    assert digest == GOLDEN_DIGEST


def test_window_edge_input_reaches_the_format_limits():
    data = _window_edge_input(random.Random(SEED))
    matches = _lz_matches(lz.compress(data))
    assert (65_535, 258) in matches
    assert max(offset for offset, _ in matches) == 65_535


def test_periodic_inputs_make_overlapping_matches():
    rng = random.Random(SEED)
    data = rng.randbytes(9) + b"xyz" * 200
    matches = _lz_matches(lz.compress(data))
    assert any(offset < length for offset, length in matches)
