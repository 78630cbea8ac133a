"""Smoke test of the benchmark: ``pytest bench/`` (not part of tier-1).

Runs all four workloads at tiny sizes through the real command line, once
untraced and once traced, and checks the contract the driver relies on:
every metric ``BENCHMARK.json`` names is printed with a unit and a finite
value, operations were attempted, the traced pass covers the wall-clock,
and the outputs passed the oracle and the self-checks (identical
repetitions, traced == untraced, sampled oracle == full replay).
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def run(workload: str, trace: int, out_dir: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke",
         "--out-dir", str(out_dir)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_names_are_well_formed():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"]]
    names += [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert "setup_s" in names


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_prints_every_metric(workload, tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line = run(workload, trace, tmp_path)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] > 0
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert set(line["metrics"]) == set(declared)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == declared[name]
            assert math.isfinite(metric["value"]), name
        if trace:
            assert line["metrics"]["trace.coverage_share"]["value"] >= 0.9
        else:
            assert all(m["value"] > 0 for m in line["metrics"].values())
    full = json.loads((tmp_path / f"{workload}.json").read_text())
    assert full["machine"]["blas_threads"]["OMP_NUM_THREADS"] == "1"
    assert (tmp_path / f"trace-{workload}.jsonl").stat().st_size > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory that holds only the benchmark there is nothing to
    measure: exit non-zero and print no result."""
    copy = tmp_path / "bench"
    copy.mkdir()
    for file in BENCH.glob("*.py"):
        (copy / file.name).write_text(file.read_text())
    done = subprocess.run([sys.executable, str(copy / "run.py"),
                           "--workload", "serve-read"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
