"""Seconds-long smoke test of the benchmark runner at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced on order-6 reductions, chains of
length 5 and 10 and the first 50 campaign seeds, and checks the result line
against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace), "--sizes", "smoke",
    ]  # fmt: skip
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_result_line(workload):
    result = result_of(run_bench(workload, 3, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_recompute_from_spans(workload):
    first = result_of(run_bench(workload, 3, 1))
    spans = ROOT / "perfbench" / "out" / f"{workload}.spans.npz"
    recomputed = json.loads(
        subprocess.run(
            [sys.executable, "perfbench/run.py", "--spans", str(spans)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        ).stdout
    )  # fmt: skip
    second = result_of(run_bench(workload, 4, 1))
    assert first["correct"] is True and second["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert {k: v["value"] for k, v in first["metrics"].items()} == recomputed
    for name, unit in expected.items():
        if unit == "count":  # program counts are exact; only times may move
            assert first["metrics"][name] == second["metrics"][name], name


def test_hc_reduced_checks_both_answers():
    metrics = result_of(run_bench("hc-reduced", 3, 1))["metrics"]
    assert 0 < metrics["zh.yes_count"]["value"] < metrics["instances"]["value"]
    assert metrics["oracle.oracle_hamilton.calls"]["value"] == metrics["instances"]["value"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    done = run_bench("chain-long", 3, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
