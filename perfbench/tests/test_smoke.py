"""Tiny-size runs of every workload through the real command."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import layers, run
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run(tmp_path, *args, cwd=ROOT):
    out = tmp_path / "runs.jsonl"
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0.1", "--scale", "0.03",
         "--out", str(out), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return completed, out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_passes_its_checks(tmp_path, workload, trace):
    completed, out = _run(tmp_path, "--workload", workload, "--seed", "3", "--trace", trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = layers.PER_LAYER if trace == "1" else run.END_TO_END
    assert sorted(result["metrics"]) == sorted(expected)
    for name, metric in result["metrics"].items():
        assert sorted(metric) == ["unit", "value"]
        assert metric["unit"] == (expected[name] if trace == "1" else expected[name][0])
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    record = json.loads(out.read_text().splitlines()[-1])
    assert record["inputs"]["digest"]


@pytest.mark.parametrize("workload", ["echo-zipf", "qos-stack", "overload-open"])
def test_netsim_outcomes_repeat_exactly_across_runs(tmp_path, workload):
    signatures = []
    for _ in range(2):
        completed, out = _run(tmp_path, "--workload", workload, "--seed", "4")
        assert completed.returncode == 0, completed.stdout + completed.stderr
        signatures.append(json.loads(out.read_text().splitlines()[-1])["signature"])
    assert signatures[0] == signatures[1]


def test_fails_without_the_program(tmp_path):
    checkout = tmp_path / "bare"
    checkout.mkdir()
    shutil.copytree(os.path.join(ROOT, "perfbench"), checkout / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), checkout / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "echo-zipf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
