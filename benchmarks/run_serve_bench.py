"""Serving-layer throughput/latency benchmark (``BENCH_serve.json``).

Builds an :class:`~repro.serve.EmbeddingService` from a freshly
pre-trained artifact at two scales — MEDIUM and the LARGE 400k-node
scale ``BENCH_stream.json`` uses — and measures the serving hot paths:

* **query throughput** — batched ``embed`` requests over random query
  nodes; cold pass (every key unseen) and warm pass (same keys again,
  exercising the row cache), with per-request p50/p99 latency;
* **score throughput** — ``score_links`` pairs/sec;
* **ingest throughput** — live events/sec through
  ``DynamicNeighborFinder`` append + sparse-delta memory advancement,
  with **background** (generation-swapped, default) vs **synchronous**
  CSR compaction — the fast path's p99-vs-p50 claim;
* **top-k retrieval** — exact full-catalog scan vs the IVF shortlist
  index (``index=True``), with measured recall@10 of the indexed path.

``--smoke`` shrinks every scale for CI and additionally *asserts* the
fast path's correctness anchors against a ``cache_capacity=0`` service:
the cached service answers bit-identically to it under interleaved probes
and ingests (stamped after the newest event
and at a past time, which the finder's most-recent ring answers with and
without its per-row time cut, and at the time of a burst on one node that
outgrows the ring, which its CSRs answer), and a replica restored from its
snapshot keeps doing so after continued ingest.

Each run is appended: the previous contents of the output file move into
its ``history`` list.

Usage::

    PYTHONPATH=src python benchmarks/run_serve_bench.py [--out PATH] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.api import PretrainArtifact, RunConfig, stream_fingerprint
from repro.core import CPDGConfig, CPDGPreTrainer
from repro.graph.events import EventStream
from repro import obs
from repro.obs import summarize_latencies
from repro.serve import EmbeddingService

SCALES = {
    "medium": dict(num_nodes=2_000, base_events=1_000, ingest_events=2_000,
                   memory_dim=32, embed_dim=32, requests=60,
                   request_size=64, ingest_block=200, topk_queries=20),
    "large": dict(num_nodes=400_000, base_events=600, ingest_events=2_000,
                  memory_dim=64, embed_dim=64, requests=40,
                  request_size=64, ingest_block=200, topk_queries=12),
}

SMOKE_SCALES = {
    "medium": dict(num_nodes=200, base_events=120, ingest_events=120,
                   memory_dim=8, embed_dim=8, requests=6,
                   request_size=16, ingest_block=40, topk_queries=4),
    "large": dict(num_nodes=5_000, base_events=120, ingest_events=120,
                  memory_dim=8, embed_dim=8, requests=6,
                  request_size=16, ingest_block=40, topk_queries=4),
}

TOPK_K = 10
TOPK_NPROBE = 8


def synthetic_stream(num_nodes: int, events: int, t_lo: float, t_hi: float,
                     seed: int) -> EventStream:
    rng = np.random.default_rng(seed)
    return EventStream(
        src=rng.integers(0, num_nodes // 2, events),
        dst=rng.integers(num_nodes // 2, num_nodes, events),
        timestamps=np.sort(rng.uniform(t_lo, t_hi, events)),
        num_nodes=num_nodes, name=f"serve-bench-{num_nodes}n")


def build_artifact(params: dict) -> tuple[PretrainArtifact, EventStream,
                                          EventStream]:
    config = RunConfig(pretrain=CPDGConfig(
        epochs=1, batch_size=100, memory_dim=params["memory_dim"],
        embed_dim=params["embed_dim"], edge_dim=0, num_checkpoints=2,
        precompute_samplers=False, seed=0))
    base = synthetic_stream(params["num_nodes"], params["base_events"],
                            0.0, 1000.0, seed=0)
    trainer = CPDGPreTrainer.from_backbone("tgn", base.num_nodes,
                                           config.pretrain, delta_scale=1.0)
    result = trainer.pretrain(base)
    artifact = PretrainArtifact(
        result=result, run_config=config, num_nodes=base.num_nodes,
        delta_scale=1.0, dataset_fingerprint=stream_fingerprint(base),
        dataset_name=base.name)
    live = synthetic_stream(params["num_nodes"], params["ingest_events"],
                            1000.0, 2000.0, seed=1)
    return artifact, base, live


def make_service(artifact: PretrainArtifact, base: EventStream,
                 params: dict, **knobs) -> EmbeddingService:
    knobs.setdefault("compaction_threshold",
                     max(params["ingest_block"] * 4, 64))
    return EmbeddingService.from_artifact(artifact, history=base, **knobs)


def timed_requests(service: EmbeddingService, queries: list) -> dict:
    latencies = []
    start = time.perf_counter()
    for nodes, ts in queries:
        t0 = time.perf_counter()
        service.embed(nodes, ts)
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    total = sum(len(nodes) for nodes, _ in queries)
    summary = summarize_latencies(latencies)
    return {
        "queries_per_sec": round(total / elapsed, 2),
        "requests_per_sec": round(len(queries) / elapsed, 2),
        "p50_ms": round(summary["p50"] * 1e3, 3),
        "p99_ms": round(summary["p99"] * 1e3, 3),
    }


def ingest_percentiles(service: EmbeddingService) -> dict:
    summary = service._ingestor.block_hist.summary()
    return {"p50_ms": round(summary["p50"] * 1e3, 3),
            "p99_ms": round(summary["p99"] * 1e3, 3)}


def bench_ingest(service: EmbeddingService, live: EventStream,
                 block: int) -> dict:
    t0 = time.perf_counter()
    service.ingest(live, block_size=block)
    elapsed = time.perf_counter() - t0
    row = {
        "events_per_sec": round(live.num_events / elapsed, 2),
        "block_events": block,
        **ingest_percentiles(service),
        "compactions": int(service.finder.compactions),
    }
    if service._compactor is not None:
        service._compactor.drain()
        row["compactor"] = service.stats()["graph"]["compactor"]
    return row


def bench_topk(service: EmbeddingService, params: dict,
               t_start: float) -> dict:
    """Exact full-catalog scan vs indexed shortlist, plus recall@10.

    Query timestamps advance per request (as live traffic's do), so the
    exact path re-embeds the whole catalog every query while the indexed
    path embeds only the source + the rescored shortlist.
    """
    rng = np.random.default_rng(11)
    queries = [(int(rng.integers(0, params["num_nodes"] // 2)),
                t_start + i * 1e-3)
               for i in range(params["topk_queries"])]
    service.top_k(queries[0][0], t_start - 1e-3, TOPK_K)  # build the index
    recalls, exact_s, indexed_s = [], 0.0, 0.0
    for src, t in queries:
        t0 = time.perf_counter()
        exact_ids, _ = service.top_k(src, t, TOPK_K, exact=True)
        exact_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        indexed_ids, _ = service.top_k(src, t, TOPK_K)
        indexed_s += time.perf_counter() - t0
        recalls.append(len(np.intersect1d(exact_ids, indexed_ids))
                       / max(len(exact_ids), 1))
    n = len(queries)
    exact_qps = n / exact_s
    indexed_qps = n / indexed_s
    index_stats = service.stats()["index"]
    return {
        "k": TOPK_K,
        "catalog": int(len(service._candidates)),
        "exact_qps": round(exact_qps, 2),
        "indexed_qps": round(indexed_qps, 2),
        "speedup": round(indexed_qps / exact_qps, 2),
        "recall_at_10": round(float(np.mean(recalls)), 4),
        "nprobe": index_stats["nprobe"],
        "nlist": index_stats["lists"],
        "shortlist": service.config.index_shortlist,
    }


def smoke_checks(artifact: PretrainArtifact, base: EventStream,
                 live: EventStream, params: dict, tmp_dir: Path) -> None:
    """CI correctness anchors (smoke mode only): exactness + snapshot.

    The witness is always a cache-free service fed the same events, and
    the cached replicas embed the probes between ingests so that their
    caches hold rows for the next block to stale.
    """
    probes = np.arange(0, params["num_nodes"],
                       max(params["num_nodes"] // 64, 1))
    t = float(live.timestamps[-1]) + 1.0
    # One probe that is older than what the blocks ingest: the ring cuts
    # each row's entries at or after it, next to `t` which cuts nothing.
    past = float(live.timestamps[0])
    oracle = make_service(artifact, base, params, cache_capacity=0,
                          background_compaction=False)
    exact = make_service(artifact, base, params,
                         background_compaction=False)
    replicas = [exact]

    def ingest_and_compare(lo: int, hi: int, what: str) -> None:
        block = params["ingest_block"]
        for start in range(lo, hi, block):
            stop = min(start + block, hi)
            for service in [oracle] + replicas:
                service.ingest(src=live.src[start:stop],
                               dst=live.dst[start:stop],
                               timestamps=live.timestamps[start:stop])
            for stamp in (t, past):
                want = oracle.embed(probes, stamp)
                for service in replicas:
                    assert np.array_equal(service.embed(probes, stamp),
                                          want), what

    for service in replicas:
        service.embed(probes, t)
    half = live.num_events // 2
    ingest_and_compare(0, half, "a cached service diverged from the "
                                "cache-free one")

    # The cache-free service writes the snapshot; a cached replica
    # restored from it must track the writer through the remaining live
    # suffix (pending messages and delta state restored, not just memory).
    path = str(tmp_dir / f"smoke-{params['num_nodes']}.npz")
    oracle.snapshot(path)
    restored = EmbeddingService.from_snapshot(artifact, path)
    assert np.array_equal(restored.embed(probes, t),
                          oracle.embed(probes, t)), \
        "snapshot round trip diverged"
    replicas.append(restored)
    ingest_and_compare(half, live.num_events,
                       "a replica diverged after continued ingest")
    # A burst on one probed node, asked at the burst's own time: the node
    # has more entries than its ring holds and every held one is cut, the
    # case the ring declines, so the CSRs answer it.
    burst = 2 * artifact.run_config.pretrain.n_neighbors + 1
    stamp = t + 1.0
    for service in [oracle] + replicas:
        service.ingest(src=np.full(burst, probes[0]),
                       dst=params["num_nodes"] // 2 + np.arange(burst),
                       timestamps=np.full(burst, stamp))
    want = oracle.embed(probes, stamp)
    for service in replicas:
        assert np.array_equal(service.embed(probes, stamp), want), \
            "a replica diverged on the CSR fallback"
    # The registry holds the newest finder's counters: the restored one's.
    paths = obs.snapshot()
    assert min(paths['repro_serve_neighbor_queries_total{path="ring"}'],
               paths['repro_serve_neighbor_queries_total{path="csr"}']) > 0, \
        "the anchors must cover the ring and the CSR fallback"
    print(f"smoke checks passed @ {params['num_nodes']} nodes "
          "(cached vs cache-free, snapshot round trip)")


def bench_scale(params: dict, smoke: bool, tmp_dir: Path) -> dict:
    artifact, base, live = build_artifact(params)
    rng = np.random.default_rng(7)
    t_query = 1000.0

    service = make_service(artifact, base, params, index=True,
                           index_nprobe=TOPK_NPROBE)
    try:
        # Cold pass: unique (node, ts) keys — every row computed.
        cold_queries = [
            (rng.integers(0, params["num_nodes"], params["request_size"]),
             np.full(params["request_size"], t_query + i * 1e-3))
            for i in range(params["requests"])
        ]
        cold = timed_requests(service, cold_queries)
        # Warm pass: identical keys — the LRU short-circuits the encoder.
        warm = timed_requests(service, cold_queries)

        # Link scoring (pairs/sec) on top of a warm cache.
        pairs = params["request_size"]
        t0 = time.perf_counter()
        for i in range(max(params["requests"] // 2, 1)):
            service.score_links(
                rng.integers(0, params["num_nodes"], pairs),
                rng.integers(0, params["num_nodes"], pairs),
                t_query + i * 1e-3)
        score_elapsed = time.perf_counter() - t0
        score_rate = (max(params["requests"] // 2, 1) * pairs) / score_elapsed

        # Live ingestion with background (default) compaction, then the
        # retrieval comparison over the grown catalog.
        ingest_bg = bench_ingest(service, live, params["ingest_block"])
        topk = bench_topk(service, params,
                          float(live.timestamps[-1]) + 1.0)
        cache_hit_rate = service.stats()["planner"]["cache_hit_rate"]
    finally:
        service.close()
    del service

    # The same ingest workload with the compaction pause on the request
    # path — the pre-fast-path behaviour the p99 claim is made against.
    sync = make_service(artifact, base, params,
                        background_compaction=False)
    ingest_sync = bench_ingest(sync, live, params["ingest_block"])
    del sync

    if smoke:
        smoke_checks(artifact, base, live, params, tmp_dir)

    return {
        **{key: params[key] for key in ("num_nodes", "base_events",
                                        "ingest_events", "memory_dim",
                                        "request_size")},
        "embed_cold": cold,
        "embed_warm": warm,
        "cache_hit_rate": cache_hit_rate,
        "score_pairs_per_sec": round(score_rate, 2),
        "ingest": {**ingest_bg, "background_compaction": True},
        "ingest_sync": {**ingest_sync, "background_compaction": False},
        "topk": topk,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_serve.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scales: correctness-only fast path for "
                             "CI (asserts snapshot round-trip and cached "
                             "exactness; no timing claims)")
    args = parser.parse_args()

    scales = SMOKE_SCALES if args.smoke else SCALES
    tmp_dir = args.out.resolve().parent
    cases = {name: bench_scale(params, args.smoke, tmp_dir)
             for name, params in scales.items()}
    history = []
    if args.out.exists():
        previous = json.loads(args.out.read_text())
        history = previous.pop("history", []) + [previous]
    payload = {
        "metric": "serving throughput/latency over a pre-trained artifact "
                  "(embed queries/sec cold and warm, score pairs/sec, live "
                  "ingest events/sec with per-block p50/p99 under "
                  "background vs synchronous compaction, exact vs indexed "
                  "top-k with recall@10)",
        "backbone": "tgn",
        "dtype": "float32",
        "smoke": bool(args.smoke),
        "cases": cases,
        "history": history,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    for name, row in cases.items():
        topk = row["topk"]
        print(f"{name:8s} nodes={row['num_nodes']:>7d} "
              f"embed {row['embed_cold']['queries_per_sec']:>9.1f} q/s cold "
              f"/ {row['embed_warm']['queries_per_sec']:>10.1f} q/s warm  "
              f"ingest p99 {row['ingest']['p99_ms']:>7.2f}ms bg "
              f"/ {row['ingest_sync']['p99_ms']:>7.2f}ms sync  "
              f"topk x{topk['speedup']:.1f} "
              f"(recall@10 {topk['recall_at_10']:.3f})")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
