"""Compare two sets of benchmark runs.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records appended by ``perfbench/run.py --out FILE``
(any mix of workloads, seeds and trace modes).  For every workload and
every end-to-end metric of ``BENCHMARK.json`` the tool prints one row
with each side's median, first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) and run count, and a
verdict:

- ``REGRESSION``: the new median is worse than the base median by more
  than the metric's bound;
- ``unresolved``: either side's spread (quartile distance over median)
  is wider than the bound, so the runs cannot tell, unless every new
  run is better than every base run (``better``);
- ``better`` / ``unchanged`` otherwise.

Under each workload, the per-layer metrics of the traced runs are listed
with both medians and their change.  Exits 1 if any row regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Runs = Dict[Tuple[str, int], Dict[str, List[float]]]


def load(path: str) -> Runs:
    """``{(workload, trace): {metric: [value per run]}}`` of one file."""
    runs: Runs = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            bucket = runs[(record["workload"], int(record["trace"]))]
            for name, metric in record["metrics"].items():
                bucket[name].append(float(metric["value"]))
    return runs


def summary(values: List[float]) -> Tuple[float, Optional[float], Optional[float]]:
    """Median and quartiles (quartiles need at least two values)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, None, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values: List[float]) -> Optional[float]:
    median, q1, q3 = summary(values)
    if q1 is None or median == 0:
        return None
    return (q3 - q1) / abs(median)


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    """The row verdict for one workload x metric (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    all_better = (
        max(new) < min(base) if better == "lower" else min(new) > max(base)
    )
    spreads = [spread(base), spread(new)]
    if any(s is None or s > bound for s in spreads):
        return "better" if all_better else "unresolved"
    if base_median == 0:
        return "unchanged" if new_median == 0 else "unresolved"
    worse_by = sign * (new_median - base_median) / abs(base_median)
    if worse_by > bound:
        return "REGRESSION"
    if -worse_by > max(spreads):
        return "better"
    return "unchanged"


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6g}"


def compare(base: Runs, new: Runs, benchmark: Dict) -> Tuple[List[str], int]:
    """Report lines and the number of regressions."""
    lines: List[str] = []
    regressions = 0
    workloads = sorted({w for w, _ in base} | {w for w, _ in new})
    header = (
        f"{'workload':<14} {'metric':<16} {'base median [q1, q3] n':<40} "
        f"{'new median [q1, q3] n':<40} {'change':>8}  verdict"
    )
    lines.append(header)
    for workload in workloads:
        base_e2e = base.get((workload, 0), {})
        new_e2e = new.get((workload, 0), {})
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            b, n = base_e2e.get(name), new_e2e.get(name)
            if not b or not n:
                lines.append(f"{workload:<14} {name:<16} missing on one side")
                continue
            row = verdict(b, n, metric["better"], metric["bound"])
            regressions += row == "REGRESSION"
            bm, bq1, bq3 = summary(b)
            nm, nq1, nq3 = summary(n)
            change = (nm - bm) / abs(bm) if bm else 0.0
            lines.append(
                f"{workload:<14} {name:<16} "
                f"{_fmt(bm) + ' [' + _fmt(bq1) + ', ' + _fmt(bq3) + '] ' + str(len(b)):<40} "
                f"{_fmt(nm) + ' [' + _fmt(nq1) + ', ' + _fmt(nq3) + '] ' + str(len(n)):<40} "
                f"{change:>+8.1%}  {row}"
            )
        base_layers = base.get((workload, 1), {})
        new_layers = new.get((workload, 1), {})
        for metric in benchmark["per_layer"]:
            name = metric["name"]
            b, n = base_layers.get(name), new_layers.get(name)
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            if bm == 0 and nm == 0:
                continue
            change = f"{(nm - bm) / abs(bm):+.1%}" if bm else "new"
            lines.append(
                f"{'':<14}   layer {name:<30} {_fmt(bm):>12} -> {_fmt(nm):<12} "
                f"{change:>8} {metric['unit']}"
            )
    return lines, regressions


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    lines, regressions = compare(load(args.base), load(args.new), benchmark)
    print("\n".join(lines))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
