"""Tests of the benchmark itself; they stand in for a harness smoke test.

    python3 -m pytest bench/test_bench.py

The workload runs take one to three minutes in all, depending on the
machine's speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_bounds_are_in_range():
    assert all(0 < m["bound"] <= 0.25 for m in run.SPEC["end_to_end"])


@pytest.mark.parametrize(
    "parent, change, wins, expected",
    [
        ([10, 10.2, 9.9, 10.1], [5, 5.1, 4.9, 5.0], 4, "improved"),
        ([10, 10.2, 9.9, 10.1], [10, 10.1, 10.0, 10.2], 2, "within bound"),
        ([10, 10.2, 9.9, 10.1], [14, 14.1, 13.9, 14.0], 0, "regressed"),
        ([5, 15, 8, 12], [13, 9, 16, 6], 2, "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, wins, expected):
    assert compare.verdict(parent, change, wins, len(parent), 0.25, lower_is_better=True) == expected


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = _run("--workload", "build", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", ["build", "ingest", "analytics"])
def test_one_pass_reports_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0"))
    assert result["correct"] and result["failed"] == 0, result
    assert sorted(result["metrics"]) == sorted(n for n, _ in run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_across_processes():
    first, second = (_result(_run("--workload", "build", "--seed", "5", "--seconds", "0", "--trace", "1")) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert sorted(first["metrics"]) == sorted(n for n, _ in run.PER_LAYER)
    counts = [n for n, _ in run.PER_LAYER if run.is_count(n)]
    assert {n: first["metrics"][n]["value"] for n in counts} == {n: second["metrics"][n]["value"] for n in counts}
    assert first["metrics"]["fulfillment.orders.produced"]["value"] > 0
    assert first["metrics"]["fulfillment.orders.unfulfilled"]["value"] > 0
