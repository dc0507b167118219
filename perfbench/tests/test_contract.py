"""BENCHMARK.json names what the command prints."""

import json
import os

from perfbench import layers, run
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_workloads_and_metrics_match_the_command():
    benchmark = _benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    # rt-loopback stays runnable but is not gated: see README.md.
    assert names == [name for name in WORKLOADS if name != "rt-loopback"]
    assert {m["name"]: (m["unit"], m["better"]) for m in benchmark["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == layers.PER_LAYER
    setup = [m for m in benchmark["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in benchmark["end_to_end"])
