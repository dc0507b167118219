"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload echo-zipf --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
unmodified; ``--trace 1`` first measures untraced, then installs timing
wrappers at every layer entry point (see :mod:`perfbench.layers`),
measures again and prints the per-layer metrics.  Every output is
checked; the run prints a human report, then as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and exits 1 if
any check failed.  ``--out FILE`` appends the full run record (inputs,
metrics with sample counts, counters) as one JSON line, the input of
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter, perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Share of rounds a reported per-round timing must be met in.  The
#: machine's speed drifts between slower and faster phases lasting
#: seconds; the value 90% of rounds meet (the 10th-percentile round for
#: throughput, the 90th for latency) tracks the sustained speed, where
#: the median tracks how much of the run happened to fall in fast phases.
SUSTAINED = 90
#: Spans of the first traced round kept for the span file.
SPAN_FILE_LIMIT = 50_000
#: ``trace.coverage`` must stay in this band on the netsim workloads.
COVERAGE_BAND = (0.9, 1.1)
NETSIM_WORKLOADS = ("echo-zipf", "qos-stack", "overload-open")

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "calls_per_s": ("1/s", "higher"),
    "call_p50_us": ("us", "lower"),
    "call_p99_us": ("us", "lower"),
    "goodput_ratio": ("fraction", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="input size factor (tests use a tiny scale)",
    )
    parser.add_argument("--out", help="append the run record to this JSON-lines file")
    return parser.parse_args(argv)


# -- measuring -------------------------------------------------------------


def measure(workload: Any, seconds: float, call: Any, traced: bool,
            after_round: Any = None) -> Tuple[List[int], List[Any]]:
    """Set up, run and tear down rounds until ``seconds`` have passed."""
    setups: List[int] = []
    rounds: List[Any] = []
    deadline = perf_counter() + seconds
    while len(rounds) < workload.min_rounds or perf_counter() < deadline:
        gc.collect()
        for repeat in range(workload.setups_per_round):
            if repeat:
                workload.teardown(deployment)
            start = perf_counter_ns()
            deployment = workload.setup(traced)
            setups.append(perf_counter_ns() - start)
        try:
            result = workload.run_round(deployment, call)
            if after_round is not None:
                after_round(deployment, result)
        finally:
            workload.teardown(deployment)
        rounds.append(result)
    return setups, rounds


def _percentile_us(latencies_ns: List[int], q: float) -> float:
    from perfbench.inputs import percentile

    return percentile(sorted(latencies_ns), q) / 1e3


def sustained(values: List[float], better: str, q: float = 50) -> float:
    """The per-round value met by :data:`SUSTAINED` percent of rounds.

    A per-round tail latency (``q`` above 50) is already the slow side of
    its round; of those the median round is reported, because the slowest
    rounds' tails measure the machine's hiccups more than the program.
    """
    from perfbench.inputs import percentile

    if q > 50:
        return statistics.median(values)
    ordered = sorted(values)
    return percentile(ordered, SUSTAINED if better == "lower" else 100 - SUSTAINED)


def open_loop_outcome(rounds: List[Any]) -> Dict[str, tuple]:
    """Simulated figures of ``overload-open``, pooled over one cycle.

    Every scenario part is deterministic, so one round per part holds
    the whole simulated outcome.
    """
    from perfbench.inputs import percentile

    seen: Dict[int, Any] = {}
    for result in rounds:
        seen.setdefault(result.signature["part"], result)
    cycle = list(seen.values())
    gold = sorted(x for r in cycle for x in r.outcome["gold_latencies"]) or [0.0]
    offered = sum(r.calls for r in cycle)
    return {
        "gold_p50_sim_ms": (percentile(gold, 50) * 1e3, "ms", len(gold)),
        "gold_p99_sim_ms": (percentile(gold, 99) * 1e3, "ms", len(gold)),
        "goodput_ratio": (
            sum(r.outcome["good"] for r in cycle) / offered, "fraction", offered
        ),
        "failed_ratio": (
            sum(r.outcome["failures"] for r in cycle) / offered, "fraction", offered
        ),
    }


def end_to_end(name: str, setups: List[int], rounds: List[Any]) -> Dict[str, tuple]:
    """Every end-to-end metric as ``(value, unit, n)``."""
    n = len(rounds)
    metrics: Dict[str, tuple] = {
        "setup_s": (statistics.median([s / 1e9 for s in setups]), "s", len(setups)),
        "calls_per_s": (
            sustained([r.figures["calls_per_s"][0] for r in rounds], "higher"), "1/s", n
        ),
    }
    if name == "overload-open":
        # The users of the open loop live in simulated time: their
        # latency is the protected (gold) class's simulated latency.
        outcome = open_loop_outcome(rounds)
        for metric, figure in (("call_p50_us", "gold_p50_sim_ms"),
                               ("call_p99_us", "gold_p99_sim_ms")):
            value, _, count = outcome[figure]
            metrics[metric] = (value * 1e3, "us", count)
        metrics["goodput_ratio"] = outcome["goodput_ratio"]
    else:
        samples = sum(len(r.latencies_ns) for r in rounds)
        for metric, q in (("call_p50_us", 50), ("call_p99_us", 99)):
            per_round = [_percentile_us(r.latencies_ns, q) for r in rounds]
            metrics[metric] = (sustained(per_round, "lower", q), "us", samples)
        calls = sum(r.calls for r in rounds)
        failed = sum(r.failed for r in rounds)
        metrics["goodput_ratio"] = ((calls - failed) / calls, "fraction", calls)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1
    )
    return metrics


def workload_figures(name: str, rounds: List[Any]) -> Dict[str, tuple]:
    """The workload's own figures (beyond the shared metric set)."""
    if name == "overload-open":
        figures = {
            "sim_requests_per_s": (
                sustained([r.figures["calls_per_s"][0] for r in rounds], "higher"),
                "1/s",
                sum(r.calls for r in rounds),
            )
        }
        figures.update(open_loop_outcome(rounds))
        return figures
    figures = {}
    for key in rounds[0].figures:
        if key == "calls_per_s":
            continue
        values = [r.figures[key][0] for r in rounds]
        figures[key] = (
            sustained(values, "higher"),
            rounds[0].figures[key][1],
            sum(r.figures[key][2] for r in rounds),
        )
    calls = sum(r.calls for r in rounds)
    failed = sum(r.failed for r in rounds)
    figures["failed_ratio"] = (failed / calls, "fraction", calls)
    return figures


def _check_rounds(workload: Any, rounds: List[Any]) -> List[str]:
    """Per-round errors, plus outcomes that must repeat exactly."""
    problems: List[str] = []
    first: Dict[Any, Any] = {}
    for index, result in enumerate(rounds):
        problems.extend(f"round {index}: {error}" for error in result.errors)
        if not workload.deterministic:
            continue
        reference = first.setdefault(result.signature.get("part"), result.signature)
        if result.signature != reference:
            problems.append(
                f"round {index}: outcome differs from the first round of its "
                f"scenario ({result.signature} != {reference})"
            )
    return problems


# -- the traced run --------------------------------------------------------


def traced_run(workload: Any, seconds: float, spans_path: str) -> Tuple[
    Dict[str, tuple], List[Any], List[str]
]:
    """Untraced then traced phases; returns per-layer metrics."""
    from perfbench import layers
    from perfbench.tracing import Tracer, layer_totals, merge_totals, write_spans

    half = seconds / 2.0
    _, plain = measure(workload, half, None, traced=False)
    tracer = Tracer()
    probes = layers.Probes()
    totals: Dict[str, Dict[str, int]] = {}
    counters: Dict[str, float] = {}
    server: Dict[str, float] = {"count": 0, "total_ns": 0}
    kept: List[Any] = []
    events_by_part: Dict[Any, set] = {}
    fired_seen = [0]

    def after_round(deployment: Any, result: Any) -> None:
        # Only spans under a benchmark call count; set-up spans do not.
        calls = {span[0] for span in tracer.spans if span[3] == layers.CALL}
        spans = [span for span in tracer.spans if span[2] in calls]
        tracer.clear()
        merge_totals(totals, layer_totals(spans))
        if not kept:
            kept.extend(spans[:SPAN_FILE_LIMIT])
        for key, value in result.counters.items():
            counters[key] = counters.get(key, 0) + value
        fired = probes.values["kernel.fired"]
        part = result.signature.get("part")
        events_by_part.setdefault(part, set()).add(sum(fired[fired_seen[0]:]))
        fired_seen[0] = len(fired)
        if hasattr(workload, "server_stats"):
            stats = workload.server_stats(deployment)
            server["count"] += stats["count"]
            server["total_ns"] += stats["total_ns"]
            tracer.clear()

    originals = _snapshot_patch_targets()
    layers.install(tracer, probes)
    try:
        _, traced = measure(
            workload, half, tracer.wrap(layers.CALL, _call_through), traced=True,
            after_round=after_round,
        )
    finally:
        tracer.restore()
    write_spans(spans_path, kept)
    problems = [
        f"{where} was not restored" for where in _restore_mismatches(originals)
    ]
    if workload.deterministic:
        problems.extend(
            f"kernel events fired differ between rounds: {sorted(counts)}"
            for counts in events_by_part.values() if len(counts) > 1
        )
    calls = sum(r.calls for r in traced)
    if workload.name == "rt-loopback":
        # The pipelined windows are not benchmark calls of the sync loop.
        calls = sum(len(r.latencies_ns) for r in traced)
    metrics = layers.per_layer_metrics(totals, probes, counters, calls, len(traced))
    metrics["rt.server_handle_us"] = (
        server["total_ns"] / 1e3 / server["count"] if server["count"] else 0.0
    )
    metrics["trace.overhead_ratio"] = sustained(
        [r.figures["calls_per_s"][0] for r in traced], "higher"
    ) / sustained([r.figures["calls_per_s"][0] for r in plain], "higher")
    coverage = metrics["trace.coverage"]
    if workload.name in NETSIM_WORKLOADS and not (
        COVERAGE_BAND[0] <= coverage <= COVERAGE_BAND[1]
    ):
        problems.append(
            f"trace.coverage {coverage:.4f} outside {COVERAGE_BAND[0]}-{COVERAGE_BAND[1]}"
        )
    units = layers.PER_LAYER
    out = {name: (metrics[name], units[name], len(traced)) for name in units}
    return out, plain + traced, problems


def _call_through(fn: Any, *args: Any) -> Any:
    return fn(*args)


def _snapshot_patch_targets() -> List[Tuple[str, Any, Any, Any]]:
    """Record every attribute :func:`layers.install` will replace."""
    from perfbench import layers
    from perfbench.tracing import Tracer

    recorder = Tracer()
    layers.install(recorder, layers.Probes())
    targets = [
        (repr(owner)[:60] + "." + str(attribute), owner, attribute, raw)
        for owner, attribute, raw in recorder.patches
    ]
    recorder.restore()
    return targets


def _restore_mismatches(targets: List[Tuple[str, Any, Any, Any]]) -> List[str]:
    mismatched = []
    for label, owner, attribute, raw in targets:
        current = owner[attribute] if isinstance(owner, dict) else vars(owner)[attribute]
        if current is not raw:
            mismatched.append(label)
    return mismatched


# -- entry point -----------------------------------------------------------


def _print_metric(name: str, value: float, unit: str, n: int) -> None:
    print(f"  {name:<32} {value:>16.6g} {unit:<9} n={n}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    described = workload.describe_inputs()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"inputs: {json.dumps(described, sort_keys=True)}")

    workload.warmup()
    if args.trace:
        out_dir = os.path.join(here, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        metrics, rounds, problems = traced_run(workload, args.seconds, spans_path)
        figures: Dict[str, tuple] = {}
        print(f"spans: {os.path.relpath(spans_path, ROOT)}")
    else:
        setups, rounds = measure(workload, args.seconds, None, traced=False)
        metrics = end_to_end(args.workload, setups, rounds)
        figures = workload_figures(args.workload, rounds)
        problems = []
    problems = _check_rounds(workload, rounds) + problems
    attempted = sum(r.calls for r in rounds)
    failed = sum(r.failed for r in rounds)
    if failed:
        problems.append(f"{failed} of {attempted} calls failed")

    print(f"rounds: {len(rounds)}")
    print("metrics:")
    for name, (value, unit, n) in metrics.items():
        _print_metric(name, value, unit, n)
    if figures:
        print("workload figures:")
        for name, (value, unit, n) in figures.items():
            _print_metric(name, value, unit, n)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "correct": correct,
            "inputs": described,
            "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
            "figures": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in figures.items()},
            "signature": repr(rounds[0].signature),
        }
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
