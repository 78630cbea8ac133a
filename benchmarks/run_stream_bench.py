"""Throughput of the streaming batch pipeline (producer/consumer loop).

Times full CPDG pre-training (Algorithm 1) at a 400k-node scale with the
batch producer run four ways — serially in process, and in 1, 2 and 4
forked children (``num_workers`` 0, 2 and 4) that inherit the sampling
context copy-on-write, take plan items round-robin and produce up to
``prefetch_batches`` batches ahead of the step — plus the
*produce/consume split*: seconds/step spent in pure batch production
(a :class:`~repro.stream.SerialProducer` sweep) and the consumer's own
seconds/step, the median serial step of the untraced repeats less that
production (a traced run would add the tracer's cost to the step).
``producer_share`` is
``produce / (produce + consume)``, the part of a step the children
could take off the trainer, and with ``w`` children the ideal step time
is ``max(produce / w, consume)``.  Recorded, not gated.

The large stream uses power-law (Zipf) item popularity — the canonical
shape of user-item interaction streams, where viral hubs with five-digit
degrees make the η-BFS candidate scoring a genuine ~half of step time.

A measured speedup needs physical cores for the children: with fewer
cores than processes the producers time-share the consumer's core.
The report therefore records the machine's usable core count and the
*modeled* pipeline ceiling from the measured split next to the measured
rates and their ratio to the serial row.  One thing is gated: every
producer must reproduce the serial loss history bit for bit.

The box's load drifts between runs, so producers are never timed one
after another: every repeat runs serial and each child count once, in an
order rotated per repeat, and each rate is reported as the median over
repeats with its interquartile range.  ``speedup_vs_serial`` is the
median of the per-repeat ratios (each against the serial run of the same
repeat), also with its interquartile range.

Writes ``BENCH_stream.json`` at the repo root.  Usage::

    PYTHONPATH=src python benchmarks/run_stream_bench.py [--out PATH] \
        [--repeats K] [--smoke]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np

import repro.stream
from repro.core import CPDGConfig, CPDGPreTrainer
from repro.graph.events import EventStream
from repro.stream import SerialProducer

WORKER_COUNTS = (0, 2, 4)
SMOKE_WORKER_COUNTS = (0, 2)

SCALES = {
    "large": dict(num_nodes=400_000, events=100_000, batch_size=200,
                  memory_dim=64, embed_dim=64, zipf_a=1.2),
}

SMOKE_SCALES = {
    "large": dict(num_nodes=5_000, events=2_000, batch_size=100,
                  memory_dim=8, embed_dim=8, zipf_a=1.2),
}


def zipf_stream(num_nodes: int, events: int, zipf_a: float,
                seed: int = 0) -> EventStream:
    """Bipartite stream with power-law item popularity (viral hubs)."""
    rng = np.random.default_rng(seed)
    half = num_nodes // 2
    ranks = rng.zipf(zipf_a, size=events)
    return EventStream(
        src=rng.integers(0, half, events),
        dst=half + (ranks - 1) % half,
        timestamps=np.sort(rng.uniform(0.0, 1000.0, events)),
        num_nodes=num_nodes,
        name=f"bench-zipf{zipf_a}-{num_nodes}n-{events}e",
    )


def scale_config(params: dict, num_workers: int) -> CPDGConfig:
    return CPDGConfig(
        epochs=1, batch_size=params["batch_size"],
        memory_dim=params["memory_dim"], embed_dim=params["embed_dim"],
        edge_dim=0, num_checkpoints=2, precompute_samplers=False,
        num_workers=num_workers, prefetch_batches=8, seed=0)


@contextlib.contextmanager
def serial_production():
    """Pre-train with the plain in-process loop, the serial oracle, in
    place of the forked producer ``num_workers=0`` builds."""
    original = repro.stream.make_producer
    repro.stream.make_producer = \
        lambda spec, plan=None, finder=None, **_: SerialProducer(
            spec, plan, finder=finder)
    try:
        yield
    finally:
        repro.stream.make_producer = original


def timed_pretrain(stream: EventStream, params: dict,
                   num_workers: int | None) -> tuple[float, str]:
    """Steps/sec of one run of the real pre-training loop, and a digest
    of its loss history (the bit-identity gate).  ``num_workers=None``
    is the serial oracle."""
    steps = int(np.ceil(stream.num_events / params["batch_size"]))
    cfg = scale_config(params, num_workers or 0)
    trainer = CPDGPreTrainer.from_backbone("tgn", stream.num_nodes, cfg)
    with serial_production() if num_workers is None \
            else contextlib.nullcontext():
        start = time.perf_counter()
        result = trainer.pretrain(stream)
        rate = steps / (time.perf_counter() - start)
    digest = hashlib.sha256(
        np.asarray(result.loss_history).tobytes()).hexdigest()
    return rate, digest


def median_iqr(values) -> dict:
    """Median and interquartile range, rounded for the report."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 2),
            "iqr": [round(float(q1), 2), round(float(q3), 2)]}


def produce_consume_split(stream: EventStream, params: dict,
                          serial_rates) -> tuple[float, float, int]:
    """``(produce, consume, steps)``, seconds per step: a serial
    production sweep, and the median serial step of the untraced
    repeats (``serial_rates``, steps/sec) less that production."""
    cfg = scale_config(params, num_workers=0)
    trainer = CPDGPreTrainer.from_backbone("tgn", stream.num_nodes, cfg)
    spec = trainer.producer_spec(stream)
    start = time.perf_counter()
    steps = sum(1 for _ in SerialProducer(spec, stream=stream))
    produce = (time.perf_counter() - start) / steps
    step = float(np.median(1.0 / np.asarray(serial_rates)))
    return produce, step - produce, steps


def bench_scale(params: dict, worker_counts: tuple[int, ...],
                repeats: int) -> dict:
    stream = zipf_stream(params["num_nodes"], params["events"],
                         params["zipf_a"])
    producers = {"serial": None,
                 **{f"workers_{w}": w for w in worker_counts}}
    names = list(producers)
    rates: dict = {name: [] for name in names}
    digests: dict = {name: set() for name in names}
    for repeat in range(repeats):
        # Rotated so no producer always runs first (or last) in a repeat.
        shift = repeat % len(names)
        for name in names[shift:] + names[:shift]:
            rate, digest = timed_pretrain(stream, params, producers[name])
            rates[name].append(rate)
            digests[name].add(digest)
    serial = np.asarray(rates["serial"])
    produce, consume, steps = produce_consume_split(stream, params, serial)
    total = produce + consume  # one serial step
    modeled = {
        f"workers_{w}": round(total / max(produce / w, consume), 2)
        for w in worker_counts if w > 0
    }
    return {
        **{k: params[k] for k in ("num_nodes", "events", "batch_size",
                                  "memory_dim", "zipf_a")},
        "steps": steps,
        "produce_seconds_per_step": round(produce, 6),
        "consume_seconds_per_step": round(consume, 6),
        "producer_share": round(produce / total, 3),
        "repeats": repeats,
        "steps_per_sec": {name: median_iqr(runs)
                          for name, runs in rates.items()},
        "speedup_vs_serial": {
            name: median_iqr(np.asarray(runs) / serial)
            for name, runs in rates.items() if name != "serial"
        },
        "modeled_pipeline_speedup": modeled,
        "bit_identical_to_serial": {
            name: found == digests["serial"] and len(found) == 1
            for name, found in digests.items() if name != "serial"
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    root = Path(__file__).resolve().parent.parent
    parser.add_argument("--out", type=Path, default=root / "BENCH_stream.json")
    parser.add_argument("--repeats", type=int, default=5,
                        help="rounds of serial + every child count "
                             "(default: %(default)s)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scales: correctness-only fast path for "
                             "CI (no timing claims)")
    args = parser.parse_args()

    scales = SMOKE_SCALES if args.smoke else SCALES
    worker_counts = SMOKE_WORKER_COUNTS if args.smoke else WORKER_COUNTS
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)

    cases = {name: bench_scale(params, worker_counts, args.repeats)
             for name, params in scales.items()}

    payload = {
        "metric": "pre-training steps per second (one step = one batch of "
                  "Algorithm 1: produce [slice + negatives + subgraph "
                  "sampling] then consume [embed + contrasts + backward "
                  "+ update + message staging])",
        "backbone": "tgn",
        "dtype": "float32",
        "machine": {"cores": cores},
        "smoke": bool(args.smoke),
        "note": "rates are medians over repeats with their interquartile "
                "range; each repeat runs every producer once, in a "
                "rotated order, and speedup_vs_serial pairs each run "
                "with the same repeat's serial run. "
                "serial is the plain in-process loop (SerialProducer); "
                "workers_N produces in max(N, 1) forked children "
                "(ForkProducer; child k takes plan items k, k + N, ...) "
                "that sample ahead of the step on the other cores, and a "
                "measured speedup needs cores for consumer + children. "
                "consume is the median untraced serial step less "
                "produce, "
                "producer_share = produce / (produce + consume), and "
                "modeled_pipeline_speedup the ceiling that share allows",
        "cases": cases,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    for name, row in cases.items():
        rates = row["steps_per_sec"]
        print(f"{name:10s} nodes={row['num_nodes']:>7d} share="
              f"{row['producer_share']:.0%} "
              + " ".join(f"{name}={rate['median']:.2f}/s"
                         f"[{rate['iqr'][0]:.2f}-{rate['iqr'][1]:.2f}]"
                         for name, rate in rates.items()))
    print(f"wrote {args.out}")

    failures = [f"{workers}: loss history diverged from serial"
                for workers, same
                in cases["large"]["bit_identical_to_serial"].items()
                if not same]
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
