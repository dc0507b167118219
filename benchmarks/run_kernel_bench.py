#!/usr/bin/env python
"""Run the kernel/codec benchmarks and write ``BENCH_kernel.json``.

Five same-run comparisons, all immune to machine drift because both
sides execute interleaved in this process:

1. **soak** — the deterministic multi-cluster soak scenario
   (:mod:`repro.workloads.soak`) on the frozen seed event kernel
   (verbatim copy in ``_seed_kernel``) versus the 4-shard
   :class:`~repro.netsim.parallel.ShardedKernel`; both fire the exact
   same event set.
2. **cdr** — ``write_any``/``read_any`` with the compiled-style fast
   path (:mod:`repro.orb._cdr_fast`) on and off, reported as ns/call
   against the seed decoder (``_seed_cdr``) timed in this run, and,
   for the record only, against the decode figure committed in
   ``BENCH_orb.json`` on another machine.
3. **echo** — the full ORB echo round-trip against the seed wire
   path, same harness as ``run_bench.py``, one payload replayed.
4. **echo_varied** — the same round-trip over the seeded Zipf echo
   corpus of ``perfbench`` (4096 payloads of four shapes, far more
   than the 256-entry wire caches hold), so caches that only pay off
   on replayed payloads cannot carry the ratio.
5. **retry_hint** — the scheduler's k-th-completion admission hint at
   depth >= 1k: the old per-check ``heapq.nsmallest`` versus the
   sorted-inflight index.

Usage::

    python benchmarks/run_kernel_bench.py [--quick] [--out BENCH_kernel.json]
        [--no-check]

Unless ``--no-check`` is given the run fails (exit 1) if the soak or
echo speedups come in under 2x, the fast-path decode is not >= 2x
faster than the seed decoder timed in the same run, or the
varied-payload echo comes in under 1.5x the seed wire path.
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import os
import random
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
for path in (SRC, HERE, ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

import _seed_cdr  # noqa: E402
import _seed_kernel  # noqa: E402
import run_bench  # noqa: E402
from perfbench.inputs import same, zipf_corpus  # noqa: E402

from repro.orb import cdr  # noqa: E402
from repro.orb.cdr import CDRDecoder, CDREncoder, use_fast_path  # noqa: E402
from repro.netsim.parallel import ShardedKernel  # noqa: E402
from repro.workloads.soak import (  # noqa: E402
    SerialScenarioDriver,
    schedule_soak,
    soak_config,
    soak_topology,
)

#: Committed interpreter-era decode cost (BENCH_orb.json at the time
#: the fast path landed).  Reported only: it was timed on another
#: machine, so a ratio against it moves with the machine, not the code.
COMMITTED_DECODE_NS = 16392.6

SOAK_SHARDS = 4

#: Seed of the varied-payload echo corpus, and the ratio over the seed
#: wire path that echo must keep on it.
VARIED_SEED = 1
MIN_VARIED_SPEEDUP = 1.5


def _soak_setup(quick: bool):
    topo = soak_topology(clusters=8, hosts_per_cluster=8)
    cfg = soak_config(
        topo,
        duration=0.6 if quick else 2.0,
        period=0.004,
        fanout=2,
        remote_ratio=0.3,
        nbytes=20_000,
        heartbeats=60 if quick else 200,
    )
    return topo, cfg


def _run_seed_soak(topo, cfg) -> tuple:
    driver = SerialScenarioDriver(
        _seed_kernel.EventKernel(), topo, seed=0, trace=False
    )
    schedule_soak(driver, cfg)
    start = perf_counter()
    fired = driver.run()
    return perf_counter() - start, fired


def _run_sharded_soak(topo, cfg) -> tuple:
    kernel = ShardedKernel(topo, shards=SOAK_SHARDS, backend="inline",
                           seed=0, trace=False)
    schedule_soak(kernel, cfg)
    start = perf_counter()
    fired = kernel.run()
    return perf_counter() - start, fired, kernel.stats()


def soak_comparison(quick: bool) -> dict:
    """Seed serial kernel vs 4-shard inline, interleaved repeats."""
    topo, cfg = _soak_setup(quick)
    repeats = 3 if quick else 5
    seed_samples, new_samples = [], []
    seed_fired = new_fired = 0
    stats = {}
    for round_index in range(repeats + 1):
        seed_time, seed_fired = _run_seed_soak(topo, cfg)
        new_time, new_fired, stats = _run_sharded_soak(topo, cfg)
        if round_index == 0:
            continue  # warm-up
        seed_samples.append(seed_time)
        new_samples.append(new_time)
    if seed_fired != new_fired:
        raise SystemExit(
            f"soak event sets diverged: seed fired {seed_fired}, "
            f"sharded fired {new_fired}"
        )
    seed_s, new_s = min(seed_samples), min(new_samples)
    return {
        "events": new_fired,
        "shards": SOAK_SHARDS,
        "seed_wall_s": round(seed_s, 4),
        "sharded_wall_s": round(new_s, 4),
        "seed_ns_per_event": round(seed_s / new_fired * 1e9, 1),
        "sharded_ns_per_event": round(new_s / new_fired * 1e9, 1),
        "speedup": round(seed_s / new_s, 3),
        "barriers": stats.get("barriers"),
        "cross_messages": stats.get("cross_messages"),
        "lookahead": stats.get("lookahead"),
    }


def cdr_comparison(quick: bool) -> dict:
    """Fast-path on vs off, ns/call, plus the committed-figure ratio."""
    number = 2000 if quick else 10000
    repeats = 3 if quick else 5
    payload = run_bench.PAYLOAD

    encoder = CDREncoder()
    encoder.write_any(payload)
    wire = encoder.getvalue()
    seed_encoder = _seed_cdr.CDREncoder()
    seed_encoder.write_any(payload)
    assert seed_encoder.getvalue() == wire, "seed and current CDR bytes diverged"

    def encode():
        enc = CDREncoder()
        enc.write_any(payload)
        return enc.getvalue()

    def decode():
        return CDRDecoder(wire).read_any()

    def timed(fn):
        best = None
        for _ in range(repeats):
            start = perf_counter()
            for _ in range(number):
                fn()
            elapsed = (perf_counter() - start) / number
            if best is None or elapsed < best:
                best = elapsed
        return best

    results = {}
    for enabled, label in ((True, "fast"), (False, "interpreted")):
        use_fast_path(enabled)
        try:
            results[label] = {
                "encode_ns_per_call": round(timed(encode) * 1e9, 1),
                "decode_ns_per_call": round(timed(decode) * 1e9, 1),
            }
        finally:
            use_fast_path(True)
    fast_decode = results["fast"]["decode_ns_per_call"]
    seed_s, new_s = run_bench._compare(
        lambda: _seed_cdr.CDRDecoder(wire).read_any(), decode,
        number=number, repeats=repeats,
    )
    return {
        "impl": cdr.FAST_IMPL,
        **results,
        "decode_speedup_vs_interpreted": round(
            results["interpreted"]["decode_ns_per_call"] / fast_decode, 3
        ),
        "committed_decode_ns_per_call": COMMITTED_DECODE_NS,
        "decode_speedup_vs_committed": round(
            COMMITTED_DECODE_NS / fast_decode, 3
        ),
        "seed_decode_ns_per_call": round(seed_s * 1e9, 1),
        "decode_speedup_vs_seed": round(seed_s / new_s, 3),
    }


def echo_comparison(quick: bool) -> dict:
    """Seed-wire vs current echo round-trip (run_bench harness)."""
    number = 150 if quick else 1000
    repeats = 5 if quick else 7
    stub_seed = run_bench._echo_stub()
    stub_new = run_bench._echo_stub()
    payload = run_bench.PAYLOAD
    seed_s, new_s = run_bench._compare(
        lambda: stub_seed.echo(payload),
        lambda: stub_new.echo(payload),
        number=number, repeats=repeats,
        seed_ctx=run_bench._seed_wire.seed_wire,
    )
    return {
        "seed_us": round(seed_s * 1e6, 3),
        "new_us": round(new_s * 1e6, 3),
        "speedup": round(seed_s / new_s, 3),
    }


def varied_echo_comparison(quick: bool) -> dict:
    """Seed-wire vs current echo round-trip over varied payloads.

    Each side walks its own copy of one Zipf call sequence, long enough
    that no batch repeats another's payloads, so batch k of both sides
    echoes the same values.
    """
    number = 150 if quick else 1000
    repeats = 5 if quick else 7
    calls = zipf_corpus(VARIED_SEED, number * (repeats + 1)).calls()
    stub_seed = run_bench._echo_stub()
    stub_new = run_bench._echo_stub()
    next_seed = itertools.cycle(calls).__next__
    next_new = itertools.cycle(calls).__next__
    seed_s, new_s = run_bench._compare(
        lambda: stub_seed.echo(next_seed()),
        lambda: stub_new.echo(next_new()),
        number=number, repeats=repeats,
        seed_ctx=run_bench._seed_wire.seed_wire,
    )
    checked = calls[:200]
    with run_bench._seed_wire.seed_wire():
        seed_ok = all(same(value, stub_seed.echo(value)) for value in checked)
    new_ok = all(same(value, stub_new.echo(value)) for value in checked)
    if not (seed_ok and new_ok):
        raise SystemExit("varied echo replies differ from their requests")
    return {
        "corpus_seed": VARIED_SEED,
        "calls_per_side": len(calls),
        "distinct_payloads": len({id(value) for value in calls}),
        "seed_us": round(seed_s * 1e6, 3),
        "new_us": round(new_s * 1e6, 3),
        "speedup": round(seed_s / new_s, 3),
    }


def retry_hint_comparison(depth: int = 2048) -> dict:
    """Admission retry hint at depth >= 1k: nsmallest vs sorted index."""
    rng = random.Random(3)
    inflight = sorted(rng.uniform(0.0, 60.0) for _ in range(depth))
    belows = list(range(1, depth, 37))
    now = 30.0

    def old_style():
        total = 0.0
        for below in belows:
            if len(inflight) < below or not inflight:
                continue
            index = len(inflight) - below
            kth = heapq.nsmallest(index + 1, inflight)[-1]
            total += max(0.0, kth - now)
        return total

    def new_style():
        total = 0.0
        for below in belows:
            if len(inflight) < below or not inflight:
                continue
            kth = inflight[len(inflight) - below]
            total += max(0.0, kth - now)
        return total

    assert abs(old_style() - new_style()) < 1e-9, "retry hints diverged"

    def timed(fn, rounds):
        best = None
        for _ in range(rounds):
            start = perf_counter()
            fn()
            elapsed = (perf_counter() - start) / len(belows)
            if best is None or elapsed < best:
                best = elapsed
        return best

    old_s = timed(old_style, 5)
    new_s = timed(new_style, 5)
    return {
        "depth": depth,
        "old_ns_per_hint": round(old_s * 1e9, 1),
        "new_ns_per_hint": round(new_s * 1e9, 1),
        "speedup": round(old_s / new_s, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer iterations (CI smoke run)")
    parser.add_argument("--out",
                        default=os.path.join(ROOT, "BENCH_kernel.json"),
                        help="output path (default: repo root)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required ratio on soak/echo/decode gates")
    parser.add_argument("--no-check", action="store_true",
                        help="record numbers without enforcing gates")
    args = parser.parse_args(argv)

    soak = soak_comparison(args.quick)
    cdr_result = cdr_comparison(args.quick)
    echo = echo_comparison(args.quick)
    varied = varied_echo_comparison(args.quick)
    retry = retry_hint_comparison()

    payload = {
        "quick": args.quick,
        "soak": soak,
        "cdr": cdr_result,
        "echo_roundtrip": echo,
        "echo_varied": varied,
        "sched_retry_hint": retry,
        "gates": {
            "min_speedup": args.min_speedup,
            "soak_speedup": soak["speedup"],
            "echo_speedup": echo["speedup"],
            "decode_speedup_vs_seed": cdr_result["decode_speedup_vs_seed"],
            "min_varied_speedup": MIN_VARIED_SPEEDUP,
            "echo_varied_speedup": varied["speedup"],
        },
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"\nwrote {args.out}")
    print(f"  soak        seed {soak['seed_wall_s']:.3f}s  "
          f"sharded {soak['sharded_wall_s']:.3f}s  "
          f"speedup {soak['speedup']:.2f}x  ({soak['events']} events)")
    print(f"  cdr decode  fast {cdr_result['fast']['decode_ns_per_call']:.0f}ns  "
          f"interpreted {cdr_result['interpreted']['decode_ns_per_call']:.0f}ns  "
          f"vs committed {cdr_result['decode_speedup_vs_committed']:.2f}x  "
          f"vs seed {cdr_result['decode_speedup_vs_seed']:.2f}x")
    print(f"  echo        seed {echo['seed_us']:.2f}us  "
          f"new {echo['new_us']:.2f}us  speedup {echo['speedup']:.2f}x")
    print(f"  echo varied seed {varied['seed_us']:.2f}us  "
          f"new {varied['new_us']:.2f}us  speedup {varied['speedup']:.2f}x  "
          f"({varied['distinct_payloads']} payloads)")
    print(f"  retry hint  old {retry['old_ns_per_hint']:.0f}ns  "
          f"new {retry['new_ns_per_hint']:.0f}ns  "
          f"speedup {retry['speedup']:.0f}x  (depth {retry['depth']})")

    if not args.no_check:
        failures = []
        if soak["speedup"] < args.min_speedup:
            failures.append(f"soak {soak['speedup']:.2f}x")
        if echo["speedup"] < args.min_speedup:
            failures.append(f"echo {echo['speedup']:.2f}x")
        if cdr_result["decode_speedup_vs_seed"] < args.min_speedup:
            failures.append(
                f"decode-vs-seed {cdr_result['decode_speedup_vs_seed']:.2f}x"
            )
        if varied["speedup"] < MIN_VARIED_SPEEDUP:
            failures.append(
                f"echo-varied {varied['speedup']:.2f}x "
                f"(bar {MIN_VARIED_SPEEDUP}x)"
            )
        if failures:
            print(f"\nFAIL: below {args.min_speedup}x: {', '.join(failures)}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
