"""The two serve workloads: ``serve-read`` and ``serve-ingest``.

Both drive one :class:`~repro.serve.EmbeddingService` (``index=True``,
other ``ServeConfig`` defaults) as a single closed-loop client over a
fixed, seeded schedule of requests.  The oracle is a second service with
``cache_capacity=0`` fed the identical ingest sequence afterwards; it
answers a seeded sample of the reads (``exact=True`` for ``top_k``) and is
never a sibling cached service.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.api import PretrainArtifact, RunConfig, stream_fingerprint
from repro.core import CPDGConfig, CPDGPreTrainer
from repro.graph.events import EventStream
from repro.obs import summarize_latencies
from repro.serve import EmbeddingService

from .. import layers
from ..harness import Rep, Verdict, Workload

# Rounding-level differences between cached and recomputed rows are
# ~1e-7; rows served stale differ by 4e-3 and up.
ROW_TOLERANCE = 1e-4
READ_KINDS = ("embed", "score", "topk")


@dataclass
class Inputs:
    seed: int
    base: EventStream
    live: EventStream
    artifact: PretrainArtifact
    # (kind, a, b, t): ingest (lo, hi, -), embed (nodes, -, t),
    # score (src, dst, t), topk (src, -, t)
    ops: list


def _zipf_ids(rng, a: float, size: int, modulus: int) -> np.ndarray:
    return (rng.zipf(a, size=size) - 1) % modulus


def _exact_top_k(oracle: EmbeddingService, catalog: np.ndarray, src: int,
                 t: float, k: int) -> np.ndarray:
    """Exact top-k ids over ``catalog``, scanned 512 candidates at a time
    and merged by the service's own scores.

    One ``top_k(exact=True)`` over the whole catalog is a single encoder
    pass of several thousand rows whose temporaries are hundreds of MB of
    fresh pages; on the reference box the page faults made an oracle
    replay take 10-25 s.  The chunked scan returns the same ids in 2.5 s.
    """
    parts = [oracle.top_k(src, t, k, candidates=catalog[lo:lo + 512])
             for lo in range(0, len(catalog), 512)]
    ids = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    return ids[np.argsort(-scores, kind="stable")[:k]]


class _Serve(Workload):
    """What the two serve workloads share; subclasses give the schedule."""

    # -- inputs ---------------------------------------------------------
    def _stream(self, rng, events: int, t_lo: float, t_hi: float):
        """Zipf users (a=1.3) and Zipf items (a=1.2): hot nodes recur.
        Items come from a bounded catalog, so the index is maintained by
        dirty-tracking far more often than it is rebuilt."""
        half = self.sizes["num_nodes"] // 2
        return EventStream(
            src=_zipf_ids(rng, 1.3, events, half),
            dst=half + _zipf_ids(rng, 1.2, events, self.sizes["items"]),
            timestamps=np.sort(rng.uniform(t_lo, t_hi, events)),
            num_nodes=self.sizes["num_nodes"], name="serve-bench")

    def _service(self, inputs: Inputs, **knobs) -> EmbeddingService:
        return EmbeddingService.from_artifact(inputs.artifact,
                                              history=inputs.base, **knobs)

    def setup(self, seed: int) -> Inputs:
        """Streams, a pre-trained artifact, one service built and closed
        (so set-up time covers everything up to 'ready to serve'), and
        the request schedule."""
        p = self.sizes
        rng = np.random.default_rng(seed)
        base = self._stream(rng, p["base_events"], 0.0, 1000.0)
        live = self._stream(rng, p["live_events"], 1000.0, 2000.0)
        config = RunConfig(pretrain=CPDGConfig(
            epochs=1, batch_size=200, memory_dim=p["dim"],
            embed_dim=p["dim"], edge_dim=0, num_checkpoints=2,
            precompute_samplers=False, seed=0))
        trainer = CPDGPreTrainer.from_backbone("tgn", p["num_nodes"],
                                               config.pretrain)
        artifact = PretrainArtifact(
            result=trainer.pretrain(base), run_config=config,
            num_nodes=p["num_nodes"], delta_scale=1.0,
            dataset_fingerprint=stream_fingerprint(base),
            dataset_name=base.name)
        inputs = Inputs(seed, base, live, artifact, self.schedule(rng, live))
        self._service(inputs, index=True).close()
        return inputs

    # -- the client -----------------------------------------------------
    def _play(self, service: EmbeddingService, inputs: Inputs,
              picked=None, oracle: bool = False):
        """Send the schedule (or the ``picked`` indices of it); returns
        outputs aligned with ``ops`` (None where skipped, the exception
        where a request failed), per-op latencies and the largest delta
        the finder held.  With ``oracle`` every ``top_k`` is an exact scan
        of the catalog the schedule implies."""
        live, ops, k = inputs.live, inputs.ops, self.sizes["k"]
        outputs = [None] * len(ops)
        latencies = np.zeros(len(ops))
        delta_max = 0
        catalog = np.unique(inputs.base.dst) if oracle else None
        for i in (range(len(ops)) if picked is None else picked):
            kind, a, b, t = ops[i]
            start = time.perf_counter()
            try:
                if kind == "ingest":
                    service.ingest(src=live.src[a:b], dst=live.dst[a:b],
                                   timestamps=live.timestamps[a:b])
                    delta_max = max(delta_max, service.finder.delta_events)
                    if oracle:
                        catalog = np.union1d(catalog, live.dst[a:b])
                elif kind == "embed":
                    outputs[i] = service.embed(a, t)
                elif kind == "score":
                    outputs[i] = service.score_links(a, b, t)
                elif oracle:
                    outputs[i] = _exact_top_k(service, catalog, a, t, k)
                else:
                    outputs[i] = service.top_k(a, t, k)[0]
            except Exception as exc:  # a failed request, not a crash
                outputs[i] = exc
            latencies[i] = time.perf_counter() - start
        return outputs, latencies, delta_max

    def run(self, inputs: Inputs, region) -> Rep:
        service = self._service(inputs, index=True)
        try:
            with region:
                outputs, latencies, delta_max = self._play(service, inputs)
            stats = service.stats()
            stats["delta_events_max"] = delta_max
            if region.tracer is not None:
                stats.update(self._snapshot(service, inputs))
        finally:
            service.close()
        stats["failures"] = sum(isinstance(o, Exception) for o in outputs)
        return Rep(region.wall_s, outputs, latencies, stats)

    def _snapshot(self, service: EmbeddingService, inputs: Inputs) -> dict:
        """Snapshot once after the timed region, then restore from it."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"snapshot-{self.name}.npz")
        start = time.perf_counter()
        service.snapshot(path)
        snapshot_s = time.perf_counter() - start
        size_mb = os.path.getsize(path) / 2**20
        start = time.perf_counter()
        EmbeddingService.from_snapshot(inputs.artifact, path).close()
        restore_s = time.perf_counter() - start
        os.remove(path)
        return {"snapshot_s": snapshot_s, "snapshot_mb": size_mb,
                "restore_s": restore_s}

    # -- the oracle -----------------------------------------------------
    def _sample(self, inputs: Inputs) -> list[int]:
        """All ingests, a seeded share of embed/score requests and evenly
        spaced ``top_k`` requests (the exact scan is the costly one)."""
        p = self.sizes
        rng = np.random.default_rng([inputs.seed, 7])
        topk = [i for i, op in enumerate(inputs.ops) if op[0] == "topk"]
        stride = max(len(topk) // p["verify_topk"], 1)
        keep_topk = set(topk[::stride][:p["verify_topk"]])
        picked = []
        for i, op in enumerate(inputs.ops):
            if op[0] == "ingest" or i in keep_topk:
                picked.append(i)
            elif op[0] != "topk" and rng.random() < p["verify_share"]:
                picked.append(i)
        return picked

    def _oracle(self, inputs: Inputs, picked) -> list:
        oracle = self._service(inputs, cache_capacity=0,
                               background_compaction=False)
        try:
            return self._play(oracle, inputs, picked, oracle=True)[0]
        finally:
            oracle.close()

    def verify(self, inputs: Inputs, reps: list) -> Verdict:
        p, ops = self.sizes, inputs.ops
        picked = self._sample(inputs)
        truth = self._oracle(inputs, picked)
        problems = []
        if self.smoke:
            # Sampling must neither hide nor invent mismatches: the
            # oracle's answers may not depend on which reads it served.
            full = self._oracle(inputs, None)
            if any(not np.array_equal(full[i], truth[i]) for i in picked
                   if ops[i][0] != "ingest"):
                problems.append("sampled oracle differs from full replay")

        served = reps[0].outputs
        latency = np.median([r.latencies for r in reps], axis=0)
        checked = dict.fromkeys(READ_KINDS, 0)
        good = dict.fromkeys(READ_KINDS, 0)
        recalls, within = [], []
        for i in picked:
            kind = ops[i][0]
            if kind == "ingest":
                continue
            got, want = served[i], truth[i]
            if isinstance(got, Exception) or isinstance(want, Exception):
                ok = np.zeros(p["k"] if kind == "topk" else len(ops[i][1]),
                              dtype=bool)
            elif kind == "topk":
                ok = np.isin(got, want)
                ok = np.concatenate(
                    [ok, np.zeros(max(len(want) - len(got), 0), dtype=bool)])
                recalls.append(ok.sum() / max(len(want), 1))
            else:
                diff = np.abs(got - want)
                ok = (diff.max(axis=1) if diff.ndim == 2 else diff) \
                    <= ROW_TOLERANCE
            checked[kind] += len(ok)
            good[kind] += int(ok.sum())
            within.append(bool(ok.all())
                          and latency[i] <= 1e-3 * p["limit_ms"])

        rows = dict.fromkeys(READ_KINDS, 0)
        for kind, a, _, _ in ops:
            if kind in rows:
                rows[kind] += p["k"] if kind == "topk" else len(a)
        total_rows = sum(rows.values())
        good_rows = sum(rows[kind] * good[kind] / checked[kind]
                        for kind in READ_KINDS if checked[kind])
        wall = float(np.median([r.wall_s for r in reps]))
        plain = checked["embed"] + checked["score"]
        stats = reps[0].stats
        planner = stats["planner"]
        index = stats["index"] or {"scanned": 0, "queries": 0}
        detail = {
            "serve.wrong_row_share":
                1.0 - (good["embed"] + good["score"]) / max(plain, 1),
            "serve.topk_recall_at_10": float(np.mean(recalls)),
            "serve.read_slo_share": float(np.mean(within)),
            "serve.ingest_events_per_s": stats["ingest"]["events"] / wall,
            "serve.cache_hit_rate": planner["cache_hit_rate"],
            "serve.dedup_share":
                planner["deduped"] / max(planner["queries"], 1),
            "serve.index_scanned_per_topk":
                index["scanned"] / max(index["queries"], 1),
            "serve.compactions": stats["graph"]["compactions"],
            "serve.delta_events_max": stats["delta_events_max"],
        }
        kinds = np.array([op[0] for op in ops])
        pooled = np.stack([r.latencies for r in reps])
        for kind in READ_KINDS + ("ingest",):
            summary = summarize_latencies(pooled[:, kinds == kind].ravel())
            detail[f"serve.{kind}_p50_ms"] = 1e3 * summary["p50"]
            detail[f"serve.{kind}_p99_ms"] = 1e3 * summary["p99"]
        return Verdict(
            ops=total_rows, attempted=sum(checked.values()),
            failed=stats["failures"], good_share=good_rows / total_rows,
            quality=float(np.mean(recalls)), detail=detail,
            problems=problems)

    def layer_table(self, totals, tracer, rep, inputs) -> dict:
        table = layers.serve_table(totals, inputs.ops)
        for key in ("snapshot_s", "snapshot_mb", "restore_s"):
            table[f"serve.{key}"] = rep.stats[key]
        return table


class ServeRead(_Serve):
    """Reads dominate: the planner's LRU, dedup and the IVF index work.

    Queries are stamped with the next multiple of a serving tick, so
    cached rows outlive the ingests inside a tick - exactly where the
    cache serves stale rows (ROADMAP open item 1).
    """

    name = "serve-read"
    SIZES = dict(num_nodes=100_000, items=4_000, base_events=3_000, dim=64,
                 cycles=100,
                 ingest_block=20, embeds=16, scores=4, topks=2,
                 request_rows=64, tick=125.0, k=10, limit_ms=10.0,
                 verify_share=0.125, verify_topk=48,
                 live_events=100 * 20)
    SMOKE = dict(num_nodes=2_000, items=300, base_events=400, dim=8, cycles=6,
                 ingest_block=10, embeds=3, scores=2, topks=1,
                 request_rows=8, tick=500.0, k=10, limit_ms=10.0,
                 verify_share=0.5, verify_topk=3, live_events=6 * 10)

    def schedule(self, rng, live: EventStream) -> list:
        p = self.sizes
        half = p["num_nodes"] // 2
        ops = []
        for cycle in range(p["cycles"]):
            lo, hi = cycle * p["ingest_block"], (cycle + 1) * p["ingest_block"]
            ops.append(("ingest", lo, hi, None))
            newest = live.timestamps[hi - 1]
            t = (np.floor(newest / p["tick"]) + 1.0) * p["tick"]
            for _ in range(p["embeds"]):
                ops.append(("embed",
                            _zipf_ids(rng, 1.3, p["request_rows"], half),
                            None, t))
            for _ in range(p["scores"]):
                ops.append(("score",
                            _zipf_ids(rng, 1.3, p["request_rows"], half),
                            half + _zipf_ids(rng, 1.2, p["request_rows"],
                                             p["items"]), t))
            for _ in range(p["topks"]):
                ops.append(("topk", int(_zipf_ids(rng, 1.3, 1, half)[0]),
                            None, t))
        return ops


class ServeIngest(_Serve):
    """Writes dominate: append, the live ingestor, background compaction
    and index dirty-tracking; every probe carries its block's timestamp,
    so the cache is nearly useless and probes pay the deferred flush."""

    name = "serve-ingest"
    SIZES = dict(num_nodes=100_000, items=4_000, base_events=3_000, dim=64,
                 blocks=250,
                 ingest_block=200, request_rows=64, topk_every=10, k=10,
                 limit_ms=25.0, verify_share=0.125, verify_topk=25,
                 live_events=250 * 200)
    SMOKE = dict(num_nodes=2_000, items=300, base_events=400, dim=8,
                 blocks=12,
                 ingest_block=40, request_rows=8, topk_every=4, k=10,
                 limit_ms=25.0, verify_share=0.5, verify_topk=3,
                 live_events=12 * 40)

    def schedule(self, rng, live: EventStream) -> list:
        p = self.sizes
        half = p["num_nodes"] // 2
        ops = []
        for block in range(p["blocks"]):
            lo, hi = block * p["ingest_block"], (block + 1) * p["ingest_block"]
            t = float(live.timestamps[hi - 1])
            ops.append(("ingest", lo, hi, None))
            ops.append(("embed", _zipf_ids(rng, 1.3, p["request_rows"], half),
                        None, t))
            if block % p["topk_every"] == p["topk_every"] - 1:
                ops.append(("topk", int(_zipf_ids(rng, 1.3, 1, half)[0]),
                            None, t))
        return ops
