"""The serving fast path: the exact row cache, the IVF shortlist index,
background compaction and snapshot/restore.

The load-bearing guarantees:

* the row cache serves the same bits as a service without a cache under
  interleaved ingests and probes (a row is served only while the touch
  counts of its receptive field stand still);
* the `CoarseQuantIndex` shortlist is always exactly rescored, so the
  indexed `top_k` can lose recall but never return a wrong score, and
  with a shortlist covering the catalog it is bit-identical to the
  exact scan;
* generation-swapped background compaction answers every query
  bit-identically to synchronous compaction (and to a finder rebuilt
  from scratch);
* `snapshot()` → `from_snapshot()` restores a replica bit-identical to
  the one that wrote it — embeddings, scores, pending messages and all
  — without replaying the ingested history.

Every equivalence is checked against a ``cache_capacity=0`` service (the
oracle), never against a sibling that shares the cache.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.serve import (CoarseQuantIndex, DynamicNeighborFinder,
                         EmbeddingService, LocalClient, ServeError,
                         SnapshotError, read_snapshot, start_http_server)
from repro.serve.http import HttpClient
from repro.serve.index import kmeans_fit
from repro.tasks.ranking import top_k_from_scores

from . import parent_fixtures as parent
from . import parent_snapshot
from .test_serve import (NUM_NODES, make_split_stream, pretrain_artifact,
                         tiny_config)


@pytest.fixture(scope="module")
def artifact_and_streams():
    full, pre, suffix = make_split_stream(seed=3)
    artifact = pretrain_artifact(pre, tiny_config("tgn"))
    return artifact, full, pre, suffix


def build_service(artifact_and_streams, **knobs) -> EmbeddingService:
    artifact, _, pre, _ = artifact_and_streams
    return EmbeddingService.from_artifact(artifact, history=pre, **knobs)


def suffix_blocks(suffix, block: int = 30):
    for lo in range(0, suffix.num_events, block):
        hi = min(lo + block, suffix.num_events)
        yield (suffix.src[lo:hi], suffix.dst[lo:hi],
               suffix.timestamps[lo:hi])


# ======================================================================
# The exact row cache
# ======================================================================

class TestExactCache:
    """Cached answers are the cache-free answers, bit for bit."""

    def interleave(self, service, suffix, probes, t, block=30):
        """Ingest the suffix in blocks, embedding probes between blocks."""
        rows = []
        for src, dst, ts in suffix_blocks(suffix, block):
            service.ingest(src=src, dst=dst, timestamps=ts)
            rows.append(service.embed(probes, t).copy())
        return np.stack(rows)

    def test_cached_bit_identical_to_cache_free(self, artifact_and_streams):
        _, _, _, suffix = artifact_and_streams
        probes = np.arange(0, NUM_NODES, 7)
        t = float(suffix.timestamps[-1]) + 1.0
        oracle = build_service(artifact_and_streams, cache_capacity=0)
        # Small blocks: some probes' fields survive an ingest untouched.
        want = self.interleave(oracle, suffix, probes, t, block=4)
        service = build_service(artifact_and_streams)
        np.testing.assert_array_equal(
            self.interleave(service, suffix, probes, t, block=4), want)
        assert int(service.planner.counters["cache_hits"]) > 0


# ======================================================================
# CoarseQuantIndex
# ======================================================================

def clustered_vectors(rng, n, dim=16, clusters=12):
    centers = rng.normal(scale=4.0, size=(clusters, dim))
    assign = rng.integers(0, clusters, n)
    return centers[assign] + rng.normal(scale=0.4, size=(n, dim))


class TestCoarseQuantIndex:
    def test_kmeans_deterministic_and_shapes(self):
        rng = np.random.default_rng(0)
        x = clustered_vectors(rng, 200)
        c1 = kmeans_fit(x, 8, np.random.default_rng(1))
        c2 = kmeans_fit(x, 8, np.random.default_rng(1))
        np.testing.assert_array_equal(c1, c2)
        assert c1.shape == (8, x.shape[1])
        # k >= n degenerates to the points themselves.
        assert kmeans_fit(x[:3], 5, np.random.default_rng(0)).shape == \
            (3, x.shape[1])

    def test_kmeans_equals_scatter_add_reference_bit_for_bit(self):
        """The bincount cluster sums equal an unbuffered ``np.add.at``
        scatter, bit for bit, through the empty-cluster re-seed."""
        def reference(vectors, k, rng, iterations=8):
            n = len(vectors)
            centroids = vectors[rng.choice(n, size=k, replace=False)].copy()
            x_sq = np.einsum("ij,ij->i", vectors, vectors)
            reseeds = 0
            for _ in range(iterations):
                c_sq = np.einsum("ij,ij->i", centroids, centroids)
                d2 = (x_sq[:, None] - 2.0 * (vectors @ centroids.T)
                      + c_sq[None, :])
                assign = np.argmin(d2, axis=1)
                counts = np.bincount(assign, minlength=k)
                sums = np.zeros_like(centroids)
                np.add.at(sums, assign, vectors)
                nonempty = counts > 0
                centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
                if not nonempty.all():
                    reseeds += 1
                    worst = np.argsort(d2[np.arange(n), assign])[::-1]
                    centroids[~nonempty] = vectors[
                        worst[:int((~nonempty).sum())]]
            return centroids, reseeds

        rng = np.random.default_rng(7)
        # Duplicate points: identical seeds leave clusters empty.
        points = clustered_vectors(rng, 12, dim=64)
        x = np.concatenate([points[rng.integers(0, 12, 300)],
                            clustered_vectors(rng, 100, dim=64)])
        for k in (6, 17, 40):
            want, reseeds = reference(x, k, np.random.default_rng(k))
            assert reseeds > 0
            got = kmeans_fit(x, k, np.random.default_rng(k))
            assert got.tobytes() == want.tobytes()

    def test_slot_map_tracks_listed_and_pending_ids(self):
        rng = np.random.default_rng(8)
        vecs = clustered_vectors(rng, 50)
        index = CoarseQuantIndex(nprobe=50)
        index.build(np.arange(100, 150), vecs)
        index.add(np.asarray([5, 900]), clustered_vectors(rng, 2))
        np.testing.assert_array_equal(
            index.contains(np.asarray([5, 100, 149, 900, 0, 150, 10**6, -1])),
            [True, True, True, True, False, False, False, False])
        q = rng.normal(size=vecs.shape[1])
        # A listed row and a pending slot in one call.
        index.replace(np.asarray([120, 900]), np.stack([q * 1e3, q * 2e3]))
        assert index.search(q, 2).tolist() == [900, 120]
        assert int(index.counters["replaced"]) == 2
        assert len(index) == 52
        assert {120, 900} <= set(index.probe_ids(q).tolist())

    def test_full_probe_matches_exact_scan(self):
        rng = np.random.default_rng(1)
        vecs = clustered_vectors(rng, 300)
        ids = rng.permutation(10_000)[:300].astype(np.int64)
        index = CoarseQuantIndex(nprobe=32)
        index.build(ids, vecs)
        assert index.num_lists == 17       # round(sqrt(300)), all probed
        for _ in range(5):
            q = rng.normal(size=vecs.shape[1])
            got = index.search(q, 10)
            want, _ = top_k_from_scores(ids, vecs @ q, 10)
            assert set(got[:10].tolist()) == set(want.tolist())

    def test_recall_at_10_with_partial_probe(self):
        rng = np.random.default_rng(2)
        vecs = clustered_vectors(rng, 2000)
        ids = np.arange(2000, dtype=np.int64)
        index = CoarseQuantIndex(nprobe=8)   # nlist auto ~ sqrt(2000)=45
        index.build(ids, vecs)
        hits = total = 0
        for _ in range(50):
            q = vecs[rng.integers(0, len(vecs))] + \
                rng.normal(scale=0.2, size=vecs.shape[1])
            got = set(index.search(q, 10).tolist())
            want, _ = top_k_from_scores(ids, vecs @ q, 10)
            hits += len(got & set(want.tolist()))
            total += len(want)
        assert hits / total >= 0.95
        assert (int(index.counters["scanned"])
                < int(index.counters["queries"]) * len(vecs))

    def test_pending_tail_always_found(self):
        rng = np.random.default_rng(3)
        vecs = clustered_vectors(rng, 200)
        index = CoarseQuantIndex(nprobe=1)
        index.build(np.arange(200), vecs)
        q = rng.normal(size=vecs.shape[1])
        q /= np.linalg.norm(q)
        # A pending candidate aligned with the query dominates every
        # listed vector and must appear first despite nprobe=1.
        index.add(np.asarray([777]), (q * 1e3)[None, :])
        assert index.search(q, 5)[0] == 777
        assert len(index) == 201

    def test_replace_refreshes_listed_and_pending(self):
        rng = np.random.default_rng(4)
        vecs = clustered_vectors(rng, 100)
        index = CoarseQuantIndex(nprobe=10)
        index.build(np.arange(100), vecs)
        index.add(np.asarray([150]), clustered_vectors(rng, 1))
        q = rng.normal(size=vecs.shape[1])
        index.replace(np.asarray([7]), (q * 1e3)[None, :])
        assert index.search(q, 3)[0] == 7
        index.replace(np.asarray([150]), (q * 2e3)[None, :])
        assert index.search(q, 3)[:2].tolist() == [150, 7]
        assert len(index) == 101

    def test_rebuild_trigger(self):
        rng = np.random.default_rng(5)
        vecs = clustered_vectors(rng, 64)
        index = CoarseQuantIndex()
        index.build(np.arange(64), vecs)
        assert not index.needs_rebuild()
        # A tail of half the listed rows is tolerated; one more is not.
        index.add(np.arange(100, 132), clustered_vectors(rng, 32))
        assert not index.needs_rebuild()
        index.add(np.asarray([132]), clustered_vectors(rng, 1))
        assert index.needs_rebuild()

    def test_empty_and_unbuilt(self):
        index = CoarseQuantIndex()
        assert len(index.search(np.zeros(4), 5)) == 0
        index.build(np.empty(0, dtype=np.int64), np.zeros((0, 4)))
        assert len(index) == 0
        assert len(index.search(np.zeros(4), 5)) == 0


# ======================================================================
# Indexed top_k through the service
# ======================================================================

class TestIndexedTopK:
    def test_covering_shortlist_is_bit_identical(self, artifact_and_streams):
        _, _, pre, suffix = artifact_and_streams
        t = float(suffix.timestamps[0])
        indexed = build_service(artifact_and_streams, index=True,
                                index_shortlist=NUM_NODES,
                                index_nprobe=64)
        exact = build_service(artifact_and_streams, cache_capacity=0)
        for src in [0, 3, 11]:
            ids_a, scores_a = indexed.top_k(src, t, 5)
            ids_b, scores_b = exact.top_k(src, t, 5)
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(scores_a, scores_b)
        stats = indexed.stats()
        assert stats["index"] is not None
        assert stats["index"]["queries"] == 3
        assert exact.stats()["index"] is None

    def test_exact_override_bypasses_index(self, artifact_and_streams):
        _, _, _, suffix = artifact_and_streams
        t = float(suffix.timestamps[0])
        service = build_service(artifact_and_streams, index=True)
        service.top_k(0, t, 5, exact=True)
        assert service.stats()["index"] is None
        service.top_k(0, t, 5)
        assert service.stats()["index"]["queries"] == 1
        # Explicit candidate sets are always scanned exactly.
        service.top_k(0, t, 3, candidates=np.asarray([40, 41, 42]))
        assert service.stats()["index"]["queries"] == 1

    def test_ingested_candidates_reach_the_index(self, artifact_and_streams):
        _, _, _, suffix = artifact_and_streams
        service = build_service(artifact_and_streams, index=True,
                                index_shortlist=NUM_NODES,
                                index_nprobe=64)
        t0 = float(suffix.timestamps[0])
        service.top_k(0, t0, 5)   # builds over the pre-train catalog
        built = len(service._index)
        src, dst, ts = next(suffix_blocks(suffix, 40))
        service.ingest(src=src, dst=dst, timestamps=ts)
        t1 = float(ts[-1]) + 1.0
        ids, scores = service.top_k(int(src[0]), t1, NUM_NODES)
        exact = build_service(artifact_and_streams, cache_capacity=0)
        exact.ingest(src=src, dst=dst, timestamps=ts)
        ids_e, scores_e = exact.top_k(int(src[0]), t1, NUM_NODES)
        np.testing.assert_array_equal(ids, ids_e)
        np.testing.assert_array_equal(scores, scores_e)
        assert len(service._index) >= built

    def test_one_planner_pass_per_shortlist(self, artifact_and_streams):
        """New candidates and the query vector share pass 1; pass 2
        re-embeds the dirty rows the probe scans and runs only when there
        are some; the exact rescoring is the last pass."""
        _, _, pre, suffix = artifact_and_streams
        # Every list probed: every dirty row is inside the probe.
        service = build_service(artifact_and_streams, index=True,
                                index_nprobe=64)
        requests = service.planner.counters["requests"]
        try:
            service.top_k(0, float(suffix.timestamps[0]), 5)    # rebuild
            assert int(requests) == 2
            src, dst, ts = next(suffix_blocks(suffix, 40))
            # One destination the catalog has never seen, next to known ones.
            newcomer = np.setdiff1d(np.arange(NUM_NODES),
                                    service._candidates)[:1]
            assert len(newcomer)
            dst = np.concatenate([newcomer, dst[1:]])
            built = len(service._index)
            service.ingest(src=src, dst=dst, timestamps=ts)
            assert service.stats()["index"]["dirty"]
            t = float(ts[-1]) + 1.0
            service.top_k(int(src[0]), t, 5)
            assert int(requests) == 5
            assert len(service._index) == built + 1
            assert service.stats()["index"]["dirty"] == 0
            # Nothing dirty, nothing new: pass 1 embeds the query alone.
            service.top_k(int(src[1]), t, 5)
            assert int(requests) == 7
        finally:
            service.close()

    def test_probe_scoped_refresh(self, artifact_and_streams):
        """An indexed top_k clears the dirty marks of exactly the rows its
        probe scans (the probed lists and the pending tail); the rest keep
        theirs until a rebuild re-embeds the whole catalog.  Scores equal
        the cache-free oracle's ``score_links`` on the returned ids."""
        _, _, _, suffix = artifact_and_streams
        service = build_service(artifact_and_streams, index=True,
                                index_nprobe=1)
        oracle = build_service(artifact_and_streams, cache_capacity=0)
        index_counters = None
        try:
            t = float(suffix.timestamps[0])
            service.top_k(0, t, 5)                              # build
            index = service._index
            index_counters = index.counters
            assert index.num_lists > 1
            blocks = suffix_blocks(suffix, 40)
            for src, dst, ts in list(blocks)[:2]:
                service.ingest(src=src, dst=dst, timestamps=ts)
                oracle.ingest(src=src, dst=dst, timestamps=ts)
                before = service._dirty_mask.copy()
                assert before.any()
                t = float(ts[-1]) + 1.0
                query = int(src[0])
                ids, scores = service.top_k(query, t, 5)
                np.testing.assert_array_equal(
                    scores, oracle.score_links(np.full(len(ids), query),
                                               ids, t))
                in_probe = np.zeros(NUM_NODES, dtype=bool)
                in_probe[index.probe_ids(service.embed(query, t)[0])] = True
                assert not service._dirty_mask[in_probe].any()
                np.testing.assert_array_equal(service._dirty_mask,
                                              before & ~in_probe)
            # Marks outside the probe survived; a rebuild clears them all.
            assert service._dirty_mask.any()
            rebuilds = int(index_counters["rebuilds"])
            # Grow the pending tail past half the listed rows (ids past
            # the node space, which the rebuild over the catalog drops).
            extra = NUM_NODES + np.arange(len(service._candidates) // 2 + 1)
            index.add(extra, np.zeros((len(extra), service.encoder.embed_dim)))
            assert index.needs_rebuild()
            service.top_k(0, t, 5)
            assert int(index_counters["rebuilds"]) == rebuilds + 1
            assert not service._dirty_mask.any()
        finally:
            service.close()
            oracle.close()

    def test_racing_ingest_loses_no_dirty_mark(self, artifact_and_streams):
        """Ingest racing indexed top_k: every indexed row left clean holds
        a vector embedded after the row's last ingest touch.  A mark
        cleared after its pass started embedding would leave a row clean
        behind a touch its vector never saw."""
        import sys

        _, _, _, suffix = artifact_and_streams
        service = build_service(artifact_and_streams, index=True,
                                index_nprobe=2)
        t = float(suffix.timestamps[-1]) + 1.0
        service.top_k(0, t, 5)
        index, touch = service._index, service._ingestor.touch_count
        # The touch counts each thread's latest planner pass started from,
        # and the counts each indexed row's stored vector was embedded at.
        local = threading.local()
        stamp = np.full(NUM_NODES, -1, dtype=np.int64)
        embed = service.planner.embed

        def stamped_embed(nodes, ts):
            local.seen = touch.copy()
            return embed(nodes, ts)

        def stamping(method):
            def mutate(ids, vectors):
                stamp[ids] = local.seen[ids]
                return method(ids, vectors)
            return mutate

        service.planner.embed = stamped_embed
        for name in ("build", "add", "replace"):
            setattr(index, name, stamping(getattr(index, name)))
        stamp[service._candidates] = 0      # built before any ingest
        done, errors = threading.Event(), []

        def ingester():
            try:
                for src, dst, ts in suffix_blocks(suffix, 3):
                    service.ingest(src=src, dst=dst, timestamps=ts)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)
            finally:
                done.set()

        def reader(seed):
            rng = np.random.default_rng(seed)
            try:
                while not done.is_set():
                    service.top_k(int(rng.integers(0, NUM_NODES // 2)), t, 5)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=ingester)] + [
            threading.Thread(target=reader, args=(s,)) for s in (1, 2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert not errors
        assert int(touch[:NUM_NODES].max()) > 0
        catalog = service._candidates
        indexed = catalog[index.contains(catalog)]
        clean = indexed[~service._dirty_mask[indexed]]
        assert len(clean)
        np.testing.assert_array_equal(stamp[clean], touch[clean])

    def test_bad_src_leaves_the_dirty_marks(self, artifact_and_streams):
        """An out-of-range ``src`` or a non-finite ``t`` is a ServeError
        (HTTP 400) raised before the shortlist takes the dirty marks:
        taken and then dropped, they would leave those candidates ranked
        by stale vectors for good."""
        import urllib.error

        _, _, _, suffix = artifact_and_streams
        service = build_service(artifact_and_streams, index=True)
        server, thread = start_http_server(service, port=0)
        try:
            service.top_k(0, float(suffix.timestamps[0]), 5)
            src, dst, ts = next(suffix_blocks(suffix, 40))
            service.ingest(src=src, dst=dst, timestamps=ts)
            dirty = service._dirty_mask.copy()
            assert dirty.any()
            t = float(ts[-1]) + 1.0
            for bad in (NUM_NODES, 10**6, -1):
                with pytest.raises(ServeError, match="node ids"):
                    service.top_k(bad, t, 5)
            with pytest.raises(ServeError, match="finite"):
                service.top_k(0, float("nan"), 5)
            client = HttpClient(f"http://127.0.0.1:"
                                f"{server.server_address[1]}")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                client.topk(10**6, t, 5)
            assert excinfo.value.code == 400
            assert "node ids" in json.loads(excinfo.value.read())["error"]
            np.testing.assert_array_equal(service._dirty_mask, dirty)
            assert service.stats()["index"]["dirty"] == int(dirty.sum())
        finally:
            server.shutdown()
            thread.join()
            service.close()

    def test_top_k_edge_cases(self, artifact_and_streams):
        _, _, _, suffix = artifact_and_streams
        t = float(suffix.timestamps[0])
        for knobs in ({}, {"index": True}):
            service = build_service(artifact_and_streams, **knobs)
            ids, scores = service.top_k(0, t, 0)
            assert len(ids) == 0 and len(scores) == 0
            ids, scores = service.top_k(0, t, 5, candidates=np.empty(0))
            assert len(ids) == 0 and len(scores) == 0
            ids, _ = service.top_k(0, t, 10, candidates=np.asarray([40, 41]))
            assert len(ids) == 2
            ids, _ = service.top_k(0, t, 10 * NUM_NODES)
            assert len(ids) == len(np.unique(service._candidates))
            with pytest.raises(ServeError):
                service.top_k(0, t, -1)

    def test_top_k_from_scores_k_zero(self):
        ids, scores = top_k_from_scores(np.asarray([3, 1]),
                                        np.asarray([0.5, 0.2]), 0)
        assert len(ids) == 0 and len(scores) == 0
        with pytest.raises(ValueError):
            top_k_from_scores(np.asarray([3]), np.asarray([0.5]), -1)


# ======================================================================
# Background compaction
# ======================================================================

class TestBackgroundCompaction:
    def test_job_commit_equivalence(self):
        full, pre, suffix = make_split_stream(seed=9)
        finder = DynamicNeighborFinder(pre, compaction_threshold=10**9)
        finder.append(suffix.src, suffix.dst, suffix.timestamps)
        job = finder.compaction_job()
        finder.build_compaction(job)
        assert finder.commit_compaction(job)
        assert finder.delta_events == 0
        scratch = DynamicNeighborFinder(full)
        nodes = np.arange(NUM_NODES)
        t = np.full(NUM_NODES, full.timestamps[-1] + 1.0)
        np.testing.assert_array_equal(finder._base.indptr,
                                      scratch._base.indptr)
        nbrs_a, ts_a, _, mask_a = finder.batch_most_recent(nodes, t, 5)
        nbrs_b, ts_b, _, mask_b = scratch.batch_most_recent(nodes, t, 5)
        np.testing.assert_array_equal(nbrs_a, nbrs_b)
        np.testing.assert_array_equal(ts_a, ts_b)
        np.testing.assert_array_equal(mask_a, mask_b)

    def test_superseded_job_is_discarded(self):
        _, pre, suffix = make_split_stream(seed=9)
        finder = DynamicNeighborFinder(pre, compaction_threshold=10**9)
        half = suffix.num_events // 2
        finder.append(suffix.src[:half], suffix.dst[:half],
                      suffix.timestamps[:half])
        job = finder.compaction_job()
        finder.build_compaction(job)
        finder.compact()                     # a competing sync compaction
        assert not finder.commit_compaction(job)
        # The stale commit must not have clobbered the newer base.
        assert finder.num_events == pre.num_events + half

    def test_background_equals_synchronous(self, artifact_and_streams):
        _, full, _, suffix = artifact_and_streams
        probes = np.arange(0, NUM_NODES, 5)
        t = float(suffix.timestamps[-1]) + 1.0
        background = build_service(artifact_and_streams,
                                   compaction_threshold=25)
        sync = build_service(artifact_and_streams, compaction_threshold=25,
                             background_compaction=False, cache_capacity=0)
        try:
            for src, dst, ts in suffix_blocks(suffix, 20):
                background.ingest(src=src, dst=dst, timestamps=ts)
                sync.ingest(src=src, dst=dst, timestamps=ts)
                background.embed(probes, t)         # rows to go stale
            assert background._compactor.drain()
            np.testing.assert_array_equal(background.embed(probes, t),
                                          sync.embed(probes, t))
            assert sync._compactor is None
            assert int(sync.finder.compactions) > 0
            stats = background.stats()["graph"]
            assert stats["background_compaction"]
            assert stats["compactor"]["generations"] >= 1
            assert background.finder.num_events == full.num_events
        finally:
            background.close()

    def test_queries_during_background_build(self, artifact_and_streams):
        """Hammer embed() while compaction cycles run; then verify bits."""
        _, _, _, suffix = artifact_and_streams
        probes = np.arange(0, NUM_NODES, 3)
        t = float(suffix.timestamps[-1]) + 1.0
        service = build_service(artifact_and_streams,
                                compaction_threshold=15)
        reference = build_service(artifact_and_streams,
                                  background_compaction=False,
                                  compaction_threshold=10**9)
        errors = []

        def hammer():
            try:
                for _ in range(20):
                    service.embed(probes, t)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            for src, dst, ts in suffix_blocks(suffix, 10):
                service.ingest(src=src, dst=dst, timestamps=ts)
                reference.ingest(src=src, dst=dst, timestamps=ts)
            thread.join()
            assert not errors
            assert service._compactor.drain()
            np.testing.assert_array_equal(service.embed(probes, t),
                                          reference.embed(probes, t))
        finally:
            service.close()


# ======================================================================
# Snapshot / restore
# ======================================================================

class TestSnapshot:
    def ingest_half(self, service, suffix, block=25):
        half = suffix.num_events // 2
        for src, dst, ts in suffix_blocks(suffix.slice_index(0, half),
                                          block):
            service.ingest(src=src, dst=dst, timestamps=ts)
        return half

    def test_round_trip_bit_identity(self, artifact_and_streams, tmp_path):
        artifact, _, _, suffix = artifact_and_streams
        path = str(tmp_path / "replica.npz")
        probes = np.arange(0, NUM_NODES, 4)
        t = float(suffix.timestamps[-1]) + 1.0
        # Threshold high enough that part of the suffix stays in the
        # delta buffer, and the last ingest leaves staged messages — the
        # two state pieces a naive snapshot would lose.
        service = build_service(artifact_and_streams,
                                compaction_threshold=70,
                                background_compaction=False,
                                cache_capacity=0)
        half = self.ingest_half(service, suffix)
        meta = service.snapshot(path)
        assert meta["num_events"] == service.finder.num_events
        assert service.finder.delta_events > 0
        restored = EmbeddingService.from_snapshot(artifact, path)
        np.testing.assert_array_equal(service.embed(probes, t),
                                      restored.embed(probes, t))
        src = suffix.src[:8]
        dst = suffix.dst[:8]
        np.testing.assert_array_equal(service.score_links(src, dst, t),
                                      restored.score_links(src, dst, t))
        ids_a, scores_a = service.top_k(0, t, 10)
        ids_b, scores_b = restored.top_k(0, t, 10)
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_array_equal(scores_a, scores_b)
        stats = restored.stats()["snapshot"]
        assert stats["restored"] and stats["events_since_restore"] == 0
        # The touch counts round-trip; the file keeps one entry per node
        # (the in-memory array carries one more, for the field padding
        # id) and no per-node touch time.
        np.testing.assert_array_equal(restored._ingestor.touch_count,
                                      service._ingestor.touch_count)
        assert service._ingestor.touch_count.any()
        _, data = read_snapshot(path)
        assert data["touch_count"].shape == (NUM_NODES,)
        assert "touch_time" not in data

    def test_continued_ingest_equivalence(self, artifact_and_streams,
                                          tmp_path):
        artifact, _, _, suffix = artifact_and_streams
        path = str(tmp_path / "replica.npz")
        probes = np.arange(0, NUM_NODES, 4)
        t = float(suffix.timestamps[-1]) + 1.0
        service = build_service(artifact_and_streams,
                                compaction_threshold=70,
                                background_compaction=False,
                                cache_capacity=0)
        half = self.ingest_half(service, suffix)
        service.snapshot(path)
        restored = EmbeddingService.from_snapshot(
            artifact, path, background_compaction=False,
            compaction_threshold=70)
        rest = suffix.slice_index(half, suffix.num_events)
        for src, dst, ts in suffix_blocks(rest, 25):
            service.ingest(src=src, dst=dst, timestamps=ts)
            restored.ingest(src=src, dst=dst, timestamps=ts)
            restored.embed(probes, t)               # rows to go stale
        np.testing.assert_array_equal(service.embed(probes, t),
                                      restored.embed(probes, t))
        assert restored.finder.num_events == service.finder.num_events

    def test_edge_featured_round_trip(self, tmp_path):
        full, pre, suffix = make_split_stream(seed=5, edge_dim=3)
        artifact = pretrain_artifact(pre, tiny_config("tgn", edge_dim=3))
        service = EmbeddingService.from_artifact(
            artifact, history=pre, background_compaction=False,
            cache_capacity=0)
        half = suffix.num_events // 2
        first = suffix.slice_index(0, half)
        service.ingest(first)
        path = str(tmp_path / "edge.npz")
        service.snapshot(path)
        restored = EmbeddingService.from_snapshot(artifact, path)
        probes = np.arange(0, NUM_NODES, 6)
        t = float(suffix.timestamps[-1]) + 1.0
        np.testing.assert_array_equal(service.embed(probes, t),
                                      restored.embed(probes, t))
        # Both replicas keep accepting featured events.
        rest = suffix.slice_index(half, suffix.num_events)
        service.ingest(rest)
        restored.ingest(rest)
        np.testing.assert_array_equal(service.embed(probes, t),
                                      restored.embed(probes, t))

    def test_wrong_artifact_rejected(self, artifact_and_streams, tmp_path):
        artifact, _, _, suffix = artifact_and_streams
        path = str(tmp_path / "replica.npz")
        service = build_service(artifact_and_streams,
                                background_compaction=False)
        service.snapshot(path)
        other_full, other_pre, _ = make_split_stream(seed=11)
        other = pretrain_artifact(other_pre, tiny_config("tgn"))
        with pytest.raises(SnapshotError, match="fingerprint"):
            EmbeddingService.from_snapshot(other, path)

    def test_not_a_snapshot_rejected(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, something=np.arange(3))
        with pytest.raises(SnapshotError, match="meta_json"):
            read_snapshot(path)
        with pytest.raises(SnapshotError):
            read_snapshot(str(tmp_path / "missing.npz"))

    def test_parent_snapshot_restores_and_serves_bit_for_bit(self,
                                                             tmp_path):
        """A snapshot recorded before the one-class memory (staged
        messages pending) restores, ingests and serves the recorded rows
        exactly, and one written now holds the recorded arrays but for
        the members deliberately dropped since (``REMOVED``)."""
        with np.load(parent_snapshot.ROWS_PATH) as frozen:
            expected = frozen["rows"]
        np.testing.assert_array_equal(
            parent_snapshot.restored_rows(parent_snapshot.SNAPSHOT_PATH),
            expected)
        path = str(tmp_path / "now.npz")
        parent_snapshot.write_snapshot(path)
        meta_now, now = read_snapshot(path)
        meta_then, then = read_snapshot(parent_snapshot.SNAPSHOT_PATH)
        assert meta_then["has_staged"]
        assert {**meta_now, "created_unix": 0} == \
            {**meta_then, "created_unix": 0}
        assert set(parent_snapshot.REMOVED) <= set(then)
        kept = sorted(set(then) - set(parent_snapshot.REMOVED))
        assert sorted(now) == kept
        for key in kept:
            if key != "meta_json":
                np.testing.assert_array_equal(now[key], then[key], key)

    def test_restored_masks_follow_new_destinations(self,
                                                    artifact_and_streams,
                                                    tmp_path):
        """A restore rebuilds the catalog and dirty-row masks: after each
        ingest that brings a destination never seen, the replica's
        catalog, index upkeep and indexed top_k equal the original's."""
        artifact, _, _, suffix = artifact_and_streams
        path = str(tmp_path / "replica.npz")
        knobs = dict(index=True, background_compaction=False,
                     cache_capacity=0)
        service = build_service(artifact_and_streams, **knobs)
        half = self.ingest_half(service, suffix)
        service.snapshot(path)
        restored = EmbeddingService.from_snapshot(artifact, path, **knobs)
        rest = suffix_blocks(suffix.slice_index(half, suffix.num_events), 20)
        # The first round builds both indexes, the second maintains them.
        for _ in range(2):
            src, dst, ts = next(rest)
            newcomer = np.setdiff1d(np.arange(NUM_NODES),
                                    service._candidates)[:1]
            assert len(newcomer)
            dst = np.concatenate([newcomer, dst[1:]])
            t = float(ts[-1]) + 1.0
            answers = []
            for replica in (service, restored):
                replica.ingest(src=src, dst=dst, timestamps=ts)
                assert newcomer[0] in replica._candidates
                answers.append((replica.stats()["candidates"],
                                *replica.top_k(int(src[0]), t, 5),
                                replica.stats()["index"]))
            (count, ids, scores, index), (count_r, ids_r, scores_r,
                                          index_r) = answers
            assert count_r == count
            np.testing.assert_array_equal(ids_r, ids)
            np.testing.assert_array_equal(scores_r, scores)
            assert index_r == index

    DAMAGE = {
        "candidates": lambda a: a + 10 ** 6,
        "last_update": lambda a: a[:10],
        "staged_nodes": lambda a: a + 10 ** 6,
        "staged_self_state": lambda a: a[:, :3],
        "staged_time": lambda a: a[:1],
        "memory_state": lambda a: a[:-1],
        "touch_count": lambda a: a[:-1],
    }

    @pytest.mark.parametrize("name", list(DAMAGE))
    def test_malformed_snapshot_is_a_snapshot_error(self, tmp_path, name):
        """One damaged array fails the restore, typed and named, instead
        of restoring and failing at a later ingest or flush."""
        with np.load(parent_snapshot.SNAPSHOT_PATH) as frozen:
            arrays = {key: frozen[key] for key in frozen.files}
        arrays[name] = self.DAMAGE[name](arrays[name])
        path = str(tmp_path / "damaged.npz")
        np.savez(path, **arrays)
        with pytest.raises(SnapshotError, match=name):
            EmbeddingService.from_snapshot(parent.ARTIFACT_PATH, path,
                                           cache_capacity=0)

    def test_meta_is_json_clean(self, artifact_and_streams, tmp_path):
        path = str(tmp_path / "replica.npz")
        service = build_service(artifact_and_streams,
                                background_compaction=False)
        meta = service.snapshot(path)
        meta2, _ = read_snapshot(path)
        assert json.loads(json.dumps(meta)) == meta2


# ======================================================================
# HTTP surface of the fast path
# ======================================================================

class TestHttpFastPath:
    @pytest.fixture()
    def service(self, artifact_and_streams):
        svc = build_service(artifact_and_streams, index=True,
                            index_shortlist=NUM_NODES, index_nprobe=64)
        yield svc
        svc.close()

    def test_stats_reports_fast_path_state(self, service):
        stats = LocalClient(service).stats()
        assert stats["graph"]["background_compaction"]
        assert stats["graph"]["compactor"]["idle"] in (True, False)
        assert stats["candidates"] > 0
        assert json.loads(json.dumps(stats))["snapshot"]["restored"] is False

    def test_snapshot_endpoint_and_topk_exact(self, service, tmp_path,
                                              artifact_and_streams):
        artifact, _, _, suffix = artifact_and_streams
        t = float(suffix.timestamps[0])
        server, thread = start_http_server(service, port=0)
        try:
            port = server.server_address[1]
            client = HttpClient(f"http://127.0.0.1:{port}")
            indexed = client.topk(0, t, 5)
            exact = client.topk(0, t, 5, exact=True)
            assert indexed == exact     # covering shortlist: identical
            path = str(tmp_path / "http.npz")
            reply = client.snapshot(path)
            assert reply["path"] == path
            restored = EmbeddingService.from_snapshot(artifact, path)
            probe = restored.embed([0], t)
            np.testing.assert_array_equal(probe, service.embed([0], t))
        finally:
            server.shutdown()
            thread.join()
