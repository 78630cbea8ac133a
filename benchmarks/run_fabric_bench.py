"""Throughput, reassembly latency and reclaim latency of the fabric.

Drives the batch-production fabric with real ``repro fabric-worker``
subprocesses over localhost TCP (the remote-worker path; local
``num_workers`` production runs in forked children, no fabric, and is
timed by ``run_stream_bench.py``), all reading the flat memory-mapped
shards, and measures

* **production rate** (batches/s) — serial in-process baseline vs the
  fabric with 1 and 2 workers, over the same Zipf stream as
  ``BENCH_stream.json``;
* **reassembly latency** — how long a completed batch waits in the
  consumer's holdback buffer for its predecessors (mean / p99);
* **reclaim latency** — SIGKILL one of two workers mid-run and time the
  gap from kill to the coordinator's lease reclamation, then confirm the
  survivor finishes the plan;
* **bit-identity** — a sha256 digest over every produced batch must
  match the serial digest in every configuration (the run *fails*
  otherwise; exit 1).

On machines without spare cores the fabric workers time-share the
consumer's core, so measured rates are a floor, not the ceiling — the
report records the core count; the latency and chaos measurements are
meaningful regardless.

Writes ``BENCH_fabric.json`` at the repo root.  Usage::

    PYTHONPATH=src python benchmarks/run_fabric_bench.py [--out PATH] [--smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.fabric import FabricProducer
from repro.stream import ProducerSpec, SerialProducer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
from run_stream_bench import zipf_stream  # noqa: E402

SCALES = {
    "large": dict(num_nodes=400_000, events=100_000, batch_size=200,
                  zipf_a=1.2),
}
SMOKE_SCALES = {
    "large": dict(num_nodes=5_000, events=2_400, batch_size=120,
                  zipf_a=1.2),
}
WORKER_COUNTS = (1, 2)


def make_spec(stream, params, shard_dir=None) -> ProducerSpec:
    return ProducerSpec(
        batch_size=params["batch_size"], seed=0, epochs=1,
        sample_temporal=True, sample_structural=True,
        eta=10, epsilon=10, depth=2,
        stream=stream, shard_dir=shard_dir)


def digest_batches(batches) -> str:
    """Order-sensitive content digest — bit-identity in one string."""
    digest = hashlib.sha256()
    for prepared in batches:
        digest.update(f"|{prepared.seq}|".encode())
        batch = prepared.batch
        for name in ("src", "dst", "timestamps", "neg_dst", "event_ids"):
            digest.update(np.ascontiguousarray(
                getattr(batch, name)).tobytes())
        for name in ("temporal_pos", "temporal_neg",
                     "structural_pos", "structural_neg"):
            subgraph = getattr(prepared, name)
            if subgraph is not None:
                digest.update(np.ascontiguousarray(
                    subgraph.nodes).tobytes())
                digest.update(np.ascontiguousarray(
                    subgraph.indptr).tobytes())
    return digest.hexdigest()


def spawn_worker(address, shard_dir, name, max_results=None):
    host, port = address
    argv = [sys.executable, "-m", "repro", "fabric-worker",
            "--connect", f"{host}:{port}", "--shards", shard_dir,
            "--name", name, "--retry-for", "30", "--quiet"]
    if max_results is not None:
        argv += ["--max-results", str(max_results)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    return subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def serial_baseline(stream, params) -> tuple[float, str, int]:
    spec = make_spec(stream, params)
    start = time.perf_counter()
    batches = list(SerialProducer(spec))
    elapsed = time.perf_counter() - start
    return len(batches) / elapsed, digest_batches(batches), len(batches)


def fabric_run(stream, params, num_workers, *, kill_one=False,
               lease_timeout=30.0) -> dict:
    """One fabric production pass with subprocess workers."""
    with tempfile.TemporaryDirectory(prefix="repro-fabric-bench-") as tmp:
        producer = FabricProducer(make_spec(stream, params), bind=":0",
                                  prefetch_batches=8,
                                  lease_timeout=lease_timeout,
                                  heartbeat_timeout=10.0, timeout=600.0)
        procs = []
        kill_at_monotonic = None
        try:
            # Copy nothing: localhost workers mount the producer's export.
            procs = [spawn_worker(producer.address, producer.shard_dir,
                                  f"bench-{i}") for i in range(num_workers)]
            batches = []
            start = time.perf_counter()
            kill_after = None
            if kill_one:
                # Let the run warm up, then SIGKILL worker 0 mid-plan —
                # once it holds a lease: a worker that has not joined yet
                # leaves nothing to reclaim.
                total = len(producer.plan)
                kill_after = max(2, total // 4)
            for prepared in producer:
                batches.append(prepared)
                if (kill_after is not None and kill_at_monotonic is None
                        and len(batches) >= kill_after
                        and producer.stats()["workers"].get(
                            "bench-0", {}).get("outstanding")):
                    kill_at_monotonic = time.monotonic()
                    procs[0].kill()
            elapsed = time.perf_counter() - start
            stats = producer.stats()
        finally:
            producer.close()
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
        row = {
            "workers": num_workers,
            "batches_per_sec": round(len(batches) / elapsed, 2),
            "digest": digest_batches(batches),
            "reassembly_wait_mean_s": round(
                stats.get("reassembly_wait_mean_s", 0.0), 6),
            "reassembly_wait_p99_s": round(
                stats.get("reassembly_wait_p99_s", 0.0), 6),
            "duplicates": stats["duplicates"],
            "reclaimed": (stats["reclaimed_expired"]
                          + stats["reclaimed_disconnect"]),
        }
        if kill_one:
            # First reclamation after the kill — both stamps are
            # time.monotonic(), so the difference is the detection gap.
            after = [t for t, _, _ in stats["reclaim_log"]
                     if kill_at_monotonic is not None
                     and t >= kill_at_monotonic]
            row["reclaim_latency_s"] = (
                round(after[0] - kill_at_monotonic, 3) if after else None)
            row["reclaim_log_entries"] = len(stats["reclaim_log"])
        return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path,
                        default=ROOT / "BENCH_fabric.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale: correctness-only fast path for CI")
    args = parser.parse_args()

    scales = SMOKE_SCALES if args.smoke else SCALES
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    failures = []
    cases = {}

    for name, params in scales.items():
        stream = zipf_stream(params["num_nodes"], params["events"],
                             params["zipf_a"])
        serial_rate, serial_digest, steps = serial_baseline(stream, params)
        row = {
            **params, "steps": steps,
            "serial_batches_per_sec": round(serial_rate, 2),
            "fabric": {},
        }
        for workers in WORKER_COUNTS:
            run = fabric_run(stream, params, workers)
            match = run.pop("digest") == serial_digest
            run["bit_identical_to_serial"] = match
            if not match:
                failures.append(f"{name}/workers={workers}: fabric output "
                                "diverged from serial")
            row["fabric"][f"workers_{workers}"] = run

        chaos = fabric_run(stream, params, 2, kill_one=True,
                           lease_timeout=15.0)
        match = chaos.pop("digest") == serial_digest
        chaos["bit_identical_to_serial"] = match
        if not match:
            failures.append(f"{name}/kill-chaos: fabric output diverged "
                            "from serial after worker kill")
        if chaos["reclaimed"] < 1:
            failures.append(f"{name}/kill-chaos: killed worker's leases "
                            "were never reclaimed")
        row["fabric"]["workers_2_one_killed"] = chaos
        cases[name] = row

    payload = {
        "metric": "batch production rate over the socket fabric (one unit "
                  "= one PreparedBatch: slice + negatives + eta-BFS/"
                  "eps-DFS sampling, produced remotely "
                  "and reassembled in plan order), plus reassembly-wait "
                  "and post-kill lease-reclaim latency",
        "machine": {"cores": cores},
        "smoke": bool(args.smoke),
        "note": "workers are real 'repro fabric-worker' subprocesses over "
                "localhost TCP reading flat memory-mapped shards; these "
                "are production-only rates (no gradient step competes "
                "for a core), so they bound what workers can deliver, "
                "not what a trainer gains — BENCH_stream.json has that. "
                "Bit-identity and reclaim behaviour hold everywhere",
        "cases": cases,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    for name, row in cases.items():
        print(f"{name}: serial {row['serial_batches_per_sec']:.2f}/s")
        for key, run in row["fabric"].items():
            extra = ""
            if "reclaim_latency_s" in run:
                extra = f" reclaim={run['reclaim_latency_s']}s"
            print(f"  {key:22s} {run['batches_per_sec']:>8.2f}/s "
                  f"p99-wait={run['reassembly_wait_p99_s']}s "
                  f"identical={run['bit_identical_to_serial']}{extra}")
    print(f"wrote {args.out}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
