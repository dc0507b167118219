"""Seeded input generators for the benchmark workloads.

Everything the program under test receives is produced here from the
workload seed, before any timing starts:

- :func:`zipf_corpus` — the echo payload corpus shared by ``echo-zipf``
  and ``rt-loopback``: four payload shapes, drawn with Zipf popularity
  from a corpus far larger than the 256-entry span caches of
  :mod:`repro.orb.giop`, so the hot head hits them and the tail misses.
- :func:`document_stream` — the unique documents of ``qos-stack``.
- :func:`overload_spec` — the scenario spec of ``overload-open``.

Each generator returns its inputs together with a SHA-256 digest of a
canonical rendering and the shape mix, which the benchmark prints so a
run can be matched to its inputs.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import struct
from typing import Any, Dict, List, Sequence

#: Distinct echo payloads: sixteen times the 256-entry span LRUs.
CORPUS_SIZE = 4096
#: Zipf exponent of payload popularity (the classic s = 1).
ZIPF_EXPONENT = 1.0
#: Payload shapes and their share of the corpus.
SHAPES = (("string", 0.35), ("quote", 0.30), ("records", 0.20), ("blob", 0.15))

_WORDS = (
    "alpha beta gamma delta quote price order ledger store value venue "
    "bid ask fill cancel route replica group window frame module codec "
    "cipher session broker stub skeleton mediator prolog epilog "
    "café naïve über ✓"
).split()


def canonical(value: Any) -> Any:
    """A JSON-able rendering that keeps types and float bit patterns."""
    kind = type(value)
    if kind is float:
        return ["f", struct.pack(">d", value).hex()]
    if kind is bytes:
        return ["y", value.hex()]
    if kind is bool:
        return ["b", value]
    if kind is int:
        return ["i", value]
    if kind is str:
        return ["s", value]
    if value is None:
        return ["n"]
    if kind is list:
        return ["l", [canonical(item) for item in value]]
    if kind is dict:
        return ["d", [[key, canonical(item)] for key, item in value.items()]]
    raise TypeError(f"no canonical form for {kind.__name__}")


def digest(value: Any) -> str:
    """SHA-256 of the canonical rendering of ``value``."""
    text = json.dumps(canonical(value), separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def same(a: Any, b: Any) -> bool:
    """Type-exact equality: bytes never equal str, floats compare by bits."""
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is float:
        return struct.pack(">d", a) == struct.pack(">d", b)
    if kind is list:
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if kind is dict:
        return list(a) == list(b) and all(same(a[key], b[key]) for key in a)
    return a == b


# -- echo corpus -----------------------------------------------------------


def _text(rng: random.Random, target: int) -> str:
    """Seeded words, exactly ``target`` characters long."""
    words: List[str] = []
    size = 0
    while size < target:
        word = rng.choice(_WORDS)
        words.append(word)
        size += len(word) + 1
    return " ".join(words)[:target]


def _price(rng: random.Random) -> float:
    roll = rng.random()
    if roll < 0.02:
        return -0.0
    if roll < 0.03:
        return float("inf")
    return round(rng.uniform(1.0, 500.0), rng.randint(0, 6))


def _spread(index: int) -> float:
    """A low-discrepancy point in [0, 1) for ``index`` (golden ratio)."""
    return (index * 0.6180339887498949) % 1.0


def _shape_cycle() -> List[str]:
    """One period of shapes, interleaved in proportion to :data:`SHAPES`.

    Shape and size are functions of the popularity rank, not of the
    seed, so every seed gives the same cost profile; the seed changes
    content and the call sequence.
    """
    weights = {name: round(share * 20) for name, share in SHAPES}
    credit = {name: 0 for name in weights}
    cycle = []
    for _ in range(sum(weights.values())):
        for name in credit:
            credit[name] += weights[name]
        pick = max(credit, key=lambda name: credit[name])
        credit[pick] -= sum(weights.values())
        cycle.append(pick)
    return cycle


def _payload(rng: random.Random, shape: str, u: float) -> Any:
    if shape == "string":
        return _text(rng, 16 + int(u * 224))
    if shape == "quote":
        return {
            "symbol": "".join(rng.choice("ABCDEFGHKLMNPRSTXZ") for _ in range(4)),
            "prices": [_price(rng) for _ in range(4 + int(u * 12))],
            "blob": rng.randbytes(16 + int(u * 112)),
            "nested": {
                "depth": rng.randint(0, 1 << 20),
                "flag": rng.random() < 0.5,
                "venue": _text(rng, 8),
            },
        }
    if shape == "records":
        return [
            {
                "id": rng.randint(0, 1 << 30),
                "name": _text(rng, 4 + int(u * 20)),
                "qty": rng.randint(-1000, 1000),
                "px": _price(rng),
                "ok": rng.random() < 0.9,
            }
            for _ in range(8)
        ]
    return rng.randbytes(1024 + int(u * 7168))


class EchoCorpus:
    """The echo payload corpus plus one Zipf-drawn call sequence."""

    def __init__(self, payloads: List[Any], shapes: List[str], order: List[int]):
        self.payloads = payloads
        self.shapes = shapes
        #: Corpus indices in call order.
        self.order = order

    def calls(self) -> List[Any]:
        return [self.payloads[index] for index in self.order]

    def describe(self) -> Dict[str, Any]:
        mix: Dict[str, int] = {name: 0 for name, _ in SHAPES}
        for index in self.order:
            mix[self.shapes[index]] += 1
        sizes = [len(json.dumps(canonical(p))) for p in self.payloads]
        return {
            "digest": digest([self.payloads, self.order]),
            "corpus_size": len(self.payloads),
            "calls": len(self.order),
            "distinct_called": len(set(self.order)),
            "shape_mix": mix,
            "canonical_bytes_min": min(sizes),
            "canonical_bytes_max": max(sizes),
        }


def zipf_corpus(seed: int, calls: int, size: int = CORPUS_SIZE) -> EchoCorpus:
    """``size`` payloads of four shapes and ``calls`` Zipf draws over them."""
    rng = random.Random(f"perfbench:echo:{seed}")
    cycle = _shape_cycle()
    shapes = [cycle[rank % len(cycle)] for rank in range(size)]
    payloads = [
        _payload(rng, shape, _spread(rank + 1)) for rank, shape in enumerate(shapes)
    ]
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, size + 1):
        total += rank ** -ZIPF_EXPONENT
        cumulative.append(total)
    # Rank r is corpus entry r-1.
    order = [
        min(bisect.bisect_left(cumulative, rng.random() * total), size - 1)
        for _ in range(calls)
    ]
    return EchoCorpus(payloads, shapes, order)


# -- qos-stack documents ---------------------------------------------------


class DocumentStream:
    """Unique documents for ``put``; one call in three is a ``get``."""

    def __init__(self, seed: int, docs: List[str], pattern: List[str]):
        self.seed = seed
        self.docs = docs
        #: "put" / "get" per call; puts consume ``docs`` in order.
        self.pattern = pattern

    def describe(self) -> Dict[str, Any]:
        sizes = [len(doc.encode("utf-8")) for doc in self.docs]
        return {
            "digest": digest([self.docs, self.pattern]),
            "calls": len(self.pattern),
            "puts": self.pattern.count("put"),
            "gets": self.pattern.count("get"),
            "docs_below_256B": sum(1 for n in sizes if n < 256),
            "docs_256B_up": sum(1 for n in sizes if n >= 256),
            "doc_bytes_min": min(sizes),
            "doc_bytes_max": max(sizes),
        }


def document_stream(seed: int, calls: int) -> DocumentStream:
    """``calls`` operations over unique, mostly small documents."""
    rng = random.Random(f"perfbench:docs:{seed}")
    pattern = ["get" if index % 3 == 2 else "put" for index in range(calls)]
    docs = []
    for index in range(pattern.count("put")):
        head = f"doc-{seed}-{index:06d}:"
        u = _spread(index + 1)
        if u < 0.8:
            body = _text(rng, 24 + int(u / 0.8 * 206))
        else:
            # The compressible tail: a short phrase repeated.
            phrase = _text(rng, 12 + int(u * 28)) + " "
            size = 256 + int((u - 0.8) / 0.2 * 1792)
            body = (phrase * (size // len(phrase) + 1))[:size]
        docs.append(head + body)
    return DocumentStream(seed, docs, pattern)


# -- overload-open spec ----------------------------------------------------

#: Per-request service time of each replica (simulated seconds).
SERVICE_TIME = 0.002
#: Replicas behind the gateway.
REPLICAS = ("s1", "s2", "s3")
#: Simulated duration of one scenario.
DURATION = 2.0
#: Scenarios per seed.  Each is short enough for many timed rounds in
#: a run; their pooled outcome has enough gold requests for a steady p99.
PARTS = 12
#: Gold requests must finish within this many simulated seconds to count
#: as served within contract; bronze is bound by its shed deadline.
GOLD_CONTRACT_S = 0.1
BRONZE_DEADLINE_S = 0.05


def overload_spec(seed: int, part: int = 0, duration: float = DURATION) -> Dict[str, Any]:
    """Scenario ``part`` of the ``overload-open`` spec (a ``load_spec`` dict).

    The seed drives arrivals, class labels, the fluid cohort and loss;
    the load shape is fixed.  The crash wave hits while the crowd has
    decayed back to base load, so its effect on the gold tail does not
    hinge on where the seed puts the peak.
    """
    capacity = len(REPLICAS) / SERVICE_TIME
    ramp_at = duration * 0.3
    link = {"latency": 0.0005, "bandwidth_mbps": 100.0}
    return {
        "name": "overload-open",
        "seed": seed * PARTS + part,
        "duration": duration,
        "tier": "orb",
        "topology": {
            "hosts": ["client", "gw", "bg", *REPLICAS],
            "links": [
                {"a": "client", "b": "gw", **link},
                {"a": "bg", "b": "gw", **link},
                *({"a": "gw", "b": host, **link} for host in REPLICAS),
            ],
        },
        "group": {"hosts": list(REPLICAS), "service_time": SERVICE_TIME},
        "sched": {
            "policy": "wfq",
            "max_depth": 512,
            "classes": {
                "gold": {"weight": 4.0, "priority": 1},
                "bronze": {
                    "weight": 1.0,
                    "priority": 6,
                    "deadline": BRONZE_DEADLINE_S,
                },
            },
        },
        "traffic": {
            "kind": "flash_crowd",
            "mode": "open",
            "base_rate": 0.7 * capacity,
            "peak_rate": 2.0 * capacity,
            "ramp_at": ramp_at,
            "ramp": duration * 0.1,
            "hold": duration * 0.3,
            "decay": duration * 0.1,
            "sources": ["client"],
            "classes": {"gold": 0.3, "bronze": 0.7},
        },
        # The background cohort shares the gw->s1 trunk.
        "fluid": {
            "n_clients": 10_000,
            "src": "bg",
            "dst": REPLICAS[0],
            "flowlets_per_client": 0.05,
            "max_flowlets": 20_000,
        },
        "chaos": [
            {
                "kind": "crash_wave",
                "at": duration * 0.8,
                "hosts": list(REPLICAS),
                "interval": duration * 0.04,
                "downtime": duration * 0.03,
                "waves": 1,
            }
        ],
    }


def describe_spec(specs: List[Dict[str, Any]]) -> Dict[str, Any]:
    spec = specs[0]
    traffic = spec["traffic"]
    return {
        "digest": digest(json.loads(json.dumps(specs))),
        "parts": len(specs),
        "duration_s": spec["duration"],
        "replicas": len(spec["group"]["hosts"]),
        "base_rate": traffic["base_rate"],
        "peak_rate": traffic["peak_rate"],
        "class_mix": traffic["classes"],
        "fluid_clients": spec["fluid"]["n_clients"],
        "crash_wave_at": spec["chaos"][0]["at"],
    }


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already sorted values (q in [0, 100])."""
    if not sorted_values:
        raise ValueError("percentile of no values")
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]
