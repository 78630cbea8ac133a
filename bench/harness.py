"""Measurement plumbing shared by the four workloads.

One run of one workload is::

    set-up (repeated, median)  ->  untraced repetitions of the timed region
        ->  oracle verification  ->  [traced repetitions -> layer table]

A *repetition* rebuilds the program's state from the same inputs and runs
the same timed region again, so its outputs must be bit-identical; the
reported time is the median repetition, which is what keeps a short run
steady on a shared machine.  ``--seconds`` bounds how long repetitions are
started for (never fewer than ``MIN_REPS``, two per pass with
``--trace 1`` or ``--smoke``).
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs

from . import BLAS_ENV, layers
from .trace import Totals, Tracer

SETUP_REPEATS = 3
# The first repetition in a process also pays for growing the heap; the
# median of five absorbs it and one more disturbed repetition.
MIN_REPS = 5
# A repetition whose bracketing calibrations differ by more than this is
# marked noisy, discarded and run again, at most MAX_RERUNS times per run
# (the issue sized two; on the reference box a third of all repetitions
# trip the limit and the cap on total run time pays for one).
NOISE_LIMIT = 0.15
MAX_RERUNS = 1


@dataclass
class Rep:
    """One repetition of a workload's timed region."""

    wall_s: float
    # Arrays the oracle checks (None for operations that return nothing,
    # the exception for ones that raised); equal across repetitions.
    outputs: list
    # Per-request latencies in seconds, aligned with the op schedule.
    latencies: np.ndarray | None = None
    # The program's own counters when the region ended.
    stats: dict = field(default_factory=dict)


@dataclass
class Verdict:
    """What the oracle found for one repetition's outputs."""

    ops: int                 # operations one repetition performs
    attempted: int           # operations the oracle checked
    failed: int              # of those, raised or non-finite
    good_share: float        # verified-correct share of ``ops``
    quality: float
    detail: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


class Workload:
    """Base of the four workloads.  A subclass names itself, gives its
    frozen ``SIZES`` and tiny ``SMOKE`` sizes, and implements ``setup``
    (inputs from a seed), ``run`` (one repetition), ``verify`` (the
    oracle) and ``layer_table`` (per-layer rows of a traced repetition)."""

    name: str
    SIZES: dict
    SMOKE: dict

    def __init__(self, smoke: bool, out_dir: str):
        self.smoke = smoke
        self.out_dir = out_dir
        self.sizes = self.SMOKE if smoke else self.SIZES


class Region:
    """Times the region and, in the traced pass, switches recording on."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.wall_s = 0.0

    def __enter__(self) -> "Region":
        if self.tracer is not None:
            self.tracer.recording = True
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.recording = False


def fingerprint(root: str) -> dict:
    """What the numbers were measured on; stored in every output."""
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "numba": importlib.util.find_spec("numba") is not None,
    }


_CAL = np.random.default_rng(0).standard_normal((192, 192)).astype(np.float32)


def calibrate() -> float:
    """Milliseconds a fixed numpy kernel takes right now: the fastest of
    three ~80 ms rounds, so that only a sustained change of machine speed
    moves it.  (The issue sized a 1 s kernel; the cap on total run time
    leaves room for a quarter of that.)"""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        x = _CAL
        for _ in range(54):
            x = np.tanh(x @ _CAL * 0.01)
        float(x.sum())
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(outputs: list) -> str:
    sha = hashlib.sha256()
    for item in outputs:
        if isinstance(item, Exception):
            sha.update(repr(item).encode())
        elif item is not None:
            sha.update(np.ascontiguousarray(item).tobytes())
    return sha.hexdigest()


def _repeat(workload, inputs, seconds: float, min_reps: int,
            tracer: Tracer | None):
    """Repetitions started within ``seconds``; returns them with their
    calibrations, the spans of each and the number of noisy re-runs."""
    reps, calibrations, spans, reruns = [], [], [], 0
    deadline = time.perf_counter() + seconds
    after = None
    while True:
        # Drop the previous repetition's service/trainer cycles now, not
        # at some point inside the next timed region.
        gc.collect()
        # One calibration sits between two repetitions and serves both.
        before = calibrate() if after is None else after
        rep = workload.run(inputs, Region(tracer))
        after = calibrate()
        taken = tracer.take() if tracer is not None else None
        if abs(after - before) > NOISE_LIMIT * min(after, before) \
                and reruns < MAX_RERUNS:
            reruns += 1
            continue
        reps.append(rep)
        calibrations += [before, after]
        spans.append(taken)
        typical = statistics.median(r.wall_s for r in reps)
        if len(reps) >= min_reps \
                and time.perf_counter() + typical > deadline:
            return reps, calibrations, spans, reruns


def _median_rep(reps: list) -> int:
    """Index of the repetition with the median (upper) wall time."""
    order = sorted(range(len(reps)), key=lambda i: reps[i].wall_s)
    return order[len(order) // 2]


def measure(workload, seed: int, seconds: float, trace: bool,
            out_dir: str) -> dict:
    """Run one workload as described in the module docstring."""
    obs.configure(enabled=False)
    problems: list[str] = []

    clock = time.perf_counter()
    setups = []
    inputs = None
    for _ in range(1 if trace else SETUP_REPEATS):
        del inputs
        gc.collect()
        start = time.perf_counter()
        inputs = workload.setup(seed)
        setups.append(time.perf_counter() - start)

    budget = seconds / 2 if trace else seconds
    min_reps = 2 if trace or workload.smoke else MIN_REPS
    reps, calibrations, _, reruns = _repeat(workload, inputs, budget,
                                            min_reps, None)
    rss = peak_rss_mb()
    reps_done = time.perf_counter()
    if obs.is_enabled():
        problems.append("repro.obs tracing was on in the untraced pass")
    reference = digest(reps[0].outputs)
    if any(digest(r.outputs) != reference for r in reps[1:]):
        problems.append("repetitions returned different outputs")

    verdict = workload.verify(inputs, reps)
    problems += verdict.problems
    verified = time.perf_counter()
    wall = statistics.median(r.wall_s for r in reps)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": rss,
        "good_ops_per_s": verdict.ops * verdict.good_share / wall,
        "correct_share": verdict.good_share,
        "quality": verdict.quality,
    }
    result = {
        "workload": workload.name,
        "seed": seed,
        "sizes": workload.sizes,
        "repetitions": len(reps),
        "rep_wall_s": [r.wall_s for r in reps],
        "noisy_reruns": reruns,
        "calibrations_ms": calibrations,
        "phase_s": {"setup": sum(setups),
                    "repetitions": reps_done - clock - sum(setups),
                    "verify": verified - reps_done},
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "end_to_end": end_to_end,
        "detail": verdict.detail,
    }

    if trace:
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced, traced_cal, spans, more = _repeat(
                workload, inputs, budget, min_reps, tracer)
            pick = _median_rep(traced)
            totals = Totals(spans[pick])
            table = workload.layer_table(totals, tracer, traced[pick],
                                         inputs)
        finally:
            tracer.uninstall()
        if any(digest(r.outputs) != reference for r in traced):
            problems.append("traced pass returned different outputs")
        traced_wall = traced[pick].wall_s
        table.update(verdict.detail)
        table["obs.trace_overhead_share"] = traced_wall / wall - 1.0
        table["trace.coverage_share"] = totals.covered / traced_wall
        table["machine.calibration_ms"] = statistics.median(
            calibrations + traced_cal)
        result["per_layer"] = table
        result["noisy_reruns"] += more
        os.makedirs(out_dir, exist_ok=True)
        Tracer.dump(spans[pick],
                    os.path.join(out_dir, f"trace-{workload.name}.jsonl"))

    values = list(end_to_end.values()) + [verdict.good_share]
    if not all(math.isfinite(v) for v in values):
        problems.append("a metric is not finite")
    result["problems"] = problems
    result["correct"] = not problems and verdict.failed == 0
    return result


def contract_line(result: dict, trace: bool, benchmark: dict) -> dict:
    """The one JSON object the driver reads from the last stdout line:
    every declared metric of the section, 0.0 for a layer that did not
    run in this workload."""
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for metric in benchmark[section]:
        value = float(result[section].get(metric["name"], 0.0))
        metrics[metric["name"]] = {
            "value": value if math.isfinite(value) else 0.0,
            "unit": metric["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_table(result: dict, benchmark: dict, stream=sys.stdout) -> None:
    """Every metric by name with its unit, for people."""
    print(f"== {result['workload']} seed={result['seed']} "
          f"reps={result['repetitions']} "
          f"noisy_reruns={result['noisy_reruns']}", file=stream)
    for section in ("end_to_end", "per_layer"):
        for metric in benchmark[section] if section in result else ():
            value = result[section].get(metric["name"], 0.0)
            print(f"  {metric['name']:40s} {value:14.6g} {metric['unit']}",
                  file=stream)
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}", file=stream)
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}", file=stream)
