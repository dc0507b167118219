"""Golden wire corpus: the bytes of the GIOP/CDR wire format, pinned.

About 500 seeded payloads of varied shape (short and non-ASCII strings,
quote maps with signed-zero and infinite prices, 8-row record lists,
1-8 KiB blobs, bignums, nested maps) are encoded as a request and as a
reply, on the flat ``any`` codec and on the class-based one.  One
SHA-256 over every wire byte is pinned: any change to the codecs or to
the GIOP framing that moves a single byte fails here, whatever caches
or fast paths sit in front of the encoders.  Every decode must also
give back the encoded values type-exactly.
"""

import hashlib
import math
import random
import struct

import pytest

from repro.orb import giop
from repro.orb.cdr import use_fast_path
from repro.orb.ior import IOR, IIOPProfile
from repro.orb.request import Request

SEED = 20010416
PAYLOADS = 504

#: SHA-256 over the corpus wire bytes (see ``_corpus_digest``).
GOLDEN_DIGEST = "3b524aee848cb44e1f6464166267e9c776685001754d7d6e2d636194c6f214ff"

_WORDS = (
    "alpha beta gamma quote price order ledger venue bid ask fill route "
    "replica module codec cipher stub skeleton mediator prolog epilog "
    "café naïve über ✓ 東京 Ωmega"
).split()

_SPECIAL_PRICES = (-0.0, 0.0, math.inf, -math.inf, 1e-308, 5e-324)


def _text(rng, words):
    return " ".join(rng.choice(_WORDS) for _ in range(words))


def _price(rng):
    if rng.random() < 0.2:
        return rng.choice(_SPECIAL_PRICES)
    return round(rng.uniform(1.0, 500.0), 4)


def _nested(rng, depth):
    node = {"depth": depth, "flag": rng.random() < 0.5, "name": _text(rng, 1)}
    if depth:
        node["child"] = _nested(rng, depth - 1)
        node["items"] = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
    return node


def _payload(rng, shape):
    if shape == "string":
        return _text(rng, rng.randint(0, 6))
    if shape == "quote":
        return {
            "symbol": _text(rng, 1).upper(),
            "prices": [_price(rng) for _ in range(rng.randint(1, 12))],
            "blob": rng.randbytes(rng.randint(0, 96)),
            "nested": {"venue": _text(rng, 1), "lot": rng.randint(1, 1000)},
        }
    if shape == "records":
        return [
            {
                "id": rng.randint(0, 2**40),
                "name": _text(rng, 2),
                "qty": rng.randint(-500, 500),
                "px": _price(rng),
                "ok": rng.random() < 0.5,
                "note": None,
            }
            for _ in range(8)
        ]
    if shape == "blob":
        return rng.randbytes(rng.randint(1024, 8192))
    if shape == "bignum":
        magnitude = rng.getrandbits(rng.randint(64, 600)) | 2**63
        return -magnitude if rng.random() < 0.5 else magnitude
    if shape == "nested":
        return _nested(rng, rng.randint(1, 4))
    raise AssertionError(shape)


_SHAPES = ("string", "quote", "records", "blob", "bignum", "nested")

_CONTEXTS = (
    {},
    {"maqs.sched.class": "gold"},
    {"measured": 1.5, "retries": 2, "flag": True},
)


def _corpus():
    rng = random.Random(SEED)
    corpus = []
    for index in range(PAYLOADS):
        payload = _payload(rng, _SHAPES[index % len(_SHAPES)])
        if index % 5 == 0:
            args = (payload, index, _text(rng, 1))
        else:
            args = (payload,)
        corpus.append((index, args, payload, _CONTEXTS[index % len(_CONTEXTS)]))
    return corpus


def _target(index):
    return IOR(
        "IDL:golden/Echo:1.0", IIOPProfile(f"host{index % 3}", 683, f"obj-{index % 4}")
    )


def _canonical(value):
    """Type-tagged rendering; floats by bit pattern (so -0.0 != 0.0)."""
    kind = type(value)
    if kind is float:
        return ("f", struct.pack(">d", value))
    if kind is list or kind is tuple:
        return (kind.__name__, tuple(_canonical(item) for item in value))
    if kind is dict:
        return ("d", tuple((key, _canonical(item)) for key, item in value.items()))
    return (kind.__name__, value)


def _wires(corpus):
    """(request, reply) wire bytes per corpus entry, caches cleared first."""
    giop.clear_caches()
    out = []
    for index, args, payload, contexts in corpus:
        request = Request(
            _target(index),
            "echo" if index % 2 else "put",
            args,
            service_contexts=dict(contexts),
            request_id=index,
        )
        out.append(
            (
                giop.encode_request(request),
                giop.encode_reply(index, payload, service_contexts=dict(contexts)),
            )
        )
    return out


def _corpus_digest(fast_wires, class_wires):
    digest = hashlib.sha256()
    for wires in (fast_wires, class_wires):
        for request_wire, reply_wire in wires:
            for wire in (request_wire, reply_wire):
                digest.update(struct.pack(">I", len(wire)))
                digest.update(wire)
    return digest.hexdigest()


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.fixture(scope="module")
def fast_wires(corpus):
    return _wires(corpus)


@pytest.fixture(scope="module")
def class_wires(corpus):
    previous = use_fast_path(False)
    try:
        return _wires(corpus)
    finally:
        use_fast_path(previous)


def test_corpus_covers_every_shape(corpus):
    payloads = [payload for _, _, payload, _ in corpus]
    assert len(payloads) >= 500
    assert any(type(p) is bytes and len(p) >= 1024 for p in payloads)
    assert any(type(p) is int and abs(p) >= 2**63 for p in payloads)
    prices = [
        price for p in payloads if type(p) is dict and "prices" in p
        for price in p["prices"]
    ]
    assert any(math.copysign(1.0, price) < 0 and price == 0 for price in prices)
    assert any(math.isinf(price) for price in prices)
    assert any(any(ord(ch) > 127 for ch in p) for p in payloads if type(p) is str)


def test_flat_and_class_codecs_agree(fast_wires, class_wires):
    for index, (fast, generic) in enumerate(zip(fast_wires, class_wires)):
        assert fast == generic, f"corpus entry {index} differs between codecs"


def test_golden_digest(fast_wires, class_wires):
    assert _corpus_digest(fast_wires, class_wires) == GOLDEN_DIGEST


@pytest.mark.parametrize("fast", [True, False], ids=["flat", "class"])
def test_decode_roundtrips_type_exactly(corpus, fast_wires, fast):
    previous = use_fast_path(fast)
    try:
        giop.clear_caches()
        # Twice: the second pass decodes through the warm wire caches.
        for _ in range(2):
            for (index, args, payload, contexts), (request_wire, reply_wire) in zip(
                corpus, fast_wires
            ):
                request = giop.decode_request(request_wire)
                assert request.request_id == index
                assert request.target == _target(index)
                assert request.service_contexts == contexts
                assert _canonical(request.args) == _canonical(args)
                reply = giop.decode_reply(reply_wire)
                assert reply.request_id == index
                assert reply.service_contexts == contexts
                assert _canonical(reply.result) == _canonical(payload)
    finally:
        use_fast_path(previous)
