"""The `repro.serve` subsystem: dynamic adjacency, replay-equivalent
ingestion, the query planner/cache, the HTTP frontend, and artifact v2.

The load-bearing guarantees:

* what the encoder asks a `DynamicNeighborFinder` (`batch_most_recent`,
  from the ring or, when it declines, the base and delta CSRs) is
  bit-identical to per-node `most_recent` on a `NeighborFinder` rebuilt
  from scratch over the concatenated events — before *and* after
  compaction;
* `EmbeddingService.embed` after `ingest` is bit-identical to an offline
  encoder that replayed the concatenated stream (all three backbones);
* format-v2 artifacts round-trip the fine-tuned bundle and still read
  v1 files.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.api import (ARTIFACT_FORMAT_VERSION, FineTunedBundle, Pipeline,
                       PretrainArtifact, RunConfig, stream_fingerprint)
from repro.api.config import DataConfig
from repro.core import CPDGConfig
from repro.core.pretrainer import CPDGPreTrainer
from repro.core.samplers import EtaBFSSampler
from repro.dgnn.encoder import make_encoder
from repro.graph.batching import EventBatch
from repro.graph.events import EventStream
from repro.graph.neighbor_finder import NeighborFinder, NeighborSlots
from repro.nn.autograd import default_dtype, no_grad
from repro.serve import (DynamicNeighborFinder, EmbeddingService,
                         HttpClient, IngestError, LocalClient,
                         MicroBatchPlanner, RowCache, ServeError,
                         start_http_server)
from repro.tasks import FineTuneConfig
from repro.tasks.ranking import top_k_from_scores

from .test_batch_sampling import assert_slots_equal, most_recent_reference

from . import parent_fixtures as parent

NUM_NODES = 60
PRETRAIN_EVENTS = 260
SUFFIX_EVENTS = 120


def make_split_stream(seed: int = 3, edge_dim: int = 0):
    """A bipartite stream split into (full, pretrain prefix, live suffix)."""
    rng = np.random.default_rng(seed)
    total = PRETRAIN_EVENTS + SUFFIX_EVENTS
    feats = (rng.normal(size=(total, edge_dim)) if edge_dim else None)
    full = EventStream(
        src=rng.integers(0, NUM_NODES // 2, total),
        dst=rng.integers(NUM_NODES // 2, NUM_NODES, total),
        timestamps=np.sort(rng.uniform(0.0, 100.0, total)),
        num_nodes=NUM_NODES, edge_feats=feats, name="serve-test")
    return (full, full.slice_index(0, PRETRAIN_EVENTS),
            full.slice_index(PRETRAIN_EVENTS, total))


def tiny_config(backbone: str = "tgn", edge_dim: int = 0) -> RunConfig:
    return RunConfig(backbone=backbone, pretrain=CPDGConfig(
        epochs=1, batch_size=90, memory_dim=8, embed_dim=8, time_dim=4,
        edge_dim=edge_dim, n_neighbors=5, num_checkpoints=2, seed=0))


def pretrain_artifact(stream: EventStream, config: RunConfig
                      ) -> PretrainArtifact:
    trainer = CPDGPreTrainer.from_backbone(
        config.backbone, stream.num_nodes, config.pretrain, delta_scale=1.0)
    result = trainer.pretrain(stream)
    return PretrainArtifact(
        result=result, run_config=config, num_nodes=stream.num_nodes,
        delta_scale=1.0, dataset_fingerprint=stream_fingerprint(stream),
        dataset_name=stream.name)


def offline_replay_embed(artifact: PretrainArtifact, full: EventStream,
                         suffix: EventStream, nodes, ts,
                         block: int = 40) -> np.ndarray:
    """The reference: replay the suffix offline over the full stream."""
    config = artifact.run_config.pretrain
    start_id = full.num_events - suffix.num_events
    with default_dtype(config.np_dtype):
        encoder = make_encoder(
            artifact.backbone, artifact.num_nodes,
            np.random.default_rng(config.seed),
            memory_dim=config.memory_dim, embed_dim=config.embed_dim,
            time_dim=config.time_dim, edge_dim=config.edge_dim,
            n_neighbors=config.n_neighbors, n_layers=config.n_layers,
            delta_scale=artifact.delta_scale, dtype=config.np_dtype)
        encoder.load_state_dict(artifact.result.encoder_state)
        encoder.load_memory(artifact.result.memory_state,
                            artifact.result.last_update)
        encoder.attach(full)
        with no_grad():
            for lo in range(0, suffix.num_events, block):
                hi = min(lo + block, suffix.num_events)
                batch = EventBatch(
                    src=suffix.src[lo:hi], dst=suffix.dst[lo:hi],
                    timestamps=suffix.timestamps[lo:hi],
                    neg_dst=np.empty(0, dtype=np.int64),
                    event_ids=np.arange(start_id + lo, start_id + hi))
                encoder.flush_messages()
                encoder.register_batch(batch)
                encoder.end_batch()
            z = encoder.compute_embedding(nodes, ts)
    return np.asarray(z.data)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def finder_state(finder: DynamicNeighborFinder) -> tuple:
    """A copy of everything an accepted append changes."""
    ring = finder._ring
    return (finder.num_events, finder.delta_events, finder._t_max,
            len(finder._buf_ts), ring.used, ring.slot_of.copy(),
            *(getattr(ring, name)[:ring.used].copy()
              for name in ring._ARRAYS))


def declined(dyn: DynamicNeighborFinder, nodes: np.ndarray, ts: np.ndarray,
             count: int) -> NeighborSlots:
    """``dyn.batch_most_recent`` with the ring declining every batch."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dyn._ring, "slots", lambda *args: None)
        return dyn.batch_most_recent(nodes, ts, count)


def assert_same_state(before: tuple, after: tuple) -> None:
    for was, now in zip(before, after, strict=True):
        np.testing.assert_array_equal(was, now)


# ======================================================================
# DynamicNeighborFinder: delta vs compacted vs rebuilt-from-scratch
# ======================================================================

class TestDynamicNeighborFinder:

    def _grown(self, seed: int, chunk: int, threshold=None):
        full, pre, suffix = make_split_stream(seed)
        dyn = DynamicNeighborFinder(pre, compaction_threshold=threshold)
        for lo in range(0, suffix.num_events, chunk):
            hi = min(lo + chunk, suffix.num_events)
            dyn.append(suffix.src[lo:hi], suffix.dst[lo:hi],
                       suffix.timestamps[lo:hi])
        return NeighborFinder(full), dyn

    def _assert_equivalent(self, ref: NeighborFinder,
                           dyn: DynamicNeighborFinder, seed: int) -> None:
        """Everything the encoder can ask, at past and future times, from
        the ring (every row asked after its newest event) and with the
        ring declining (the base and delta CSRs)."""
        rng = np.random.default_rng(seed)
        nodes = rng.integers(0, NUM_NODES, 300)
        ts = rng.uniform(0.0, 130.0, 300)
        for count in (1, 4, 9):
            for when in (ts, np.full(300, 130.0)):
                expected = most_recent_reference(ref, nodes, when, count)
                assert_slots_equal(dyn.batch_most_recent(nodes, when, count),
                                   expected, f"count={count}")
                assert_slots_equal(declined(dyn, nodes, when, count),
                                   expected, f"declined count={count}")
        answered = int(dyn._ring._answered)
        assert dyn._ring.slots(nodes, np.full(300, 130.0), 9) is not None
        assert int(dyn._ring._answered) == answered + 1

    @pytest.mark.parametrize("seed", [0, 7, 21])
    @pytest.mark.parametrize("chunk", [1, 17, SUFFIX_EVENTS])
    def test_delta_queries_match_rebuilt_finder(self, seed, chunk):
        ref, dyn = self._grown(seed, chunk, threshold=None)
        assert dyn.delta_events == SUFFIX_EVENTS  # never compacted
        self._assert_equivalent(ref, dyn, seed)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_compacted_queries_match_rebuilt_finder(self, seed):
        ref, dyn = self._grown(seed, 17, threshold=None)
        dyn.compact()
        assert dyn.delta_events == 0 and int(dyn.compactions) == 1
        self._assert_equivalent(ref, dyn, seed)
        # The merged base is what the snapshot writer reads.
        for name in ("indptr", "neighbors", "times", "event_ids"):
            np.testing.assert_array_equal(getattr(ref, name),
                                          getattr(dyn._base, name), name)

    def test_auto_compaction_threshold(self):
        _, dyn = self._grown(0, 17, threshold=50)
        assert int(dyn.compactions) >= 1
        assert dyn.delta_events < 50

    def test_append_validation(self):
        _, pre, _ = make_split_stream(0)
        dyn = DynamicNeighborFinder(pre)
        t_next = pre.t_max + 1.0
        with pytest.raises(IngestError):
            dyn.append([1], [NUM_NODES], [t_next])        # out of node space
        with pytest.raises(IngestError):
            dyn.append([1], [2], [pre.t_max - 5.0])       # time regression
        with pytest.raises(IngestError):
            dyn.append([1, 2], [3, 4], [t_next + 1, t_next])  # unsorted
        with pytest.raises(IngestError):
            dyn.append([1], [2], [t_next], event_ids=[999])   # id gap
        assert dyn.num_events == PRETRAIN_EVENTS

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_append_rejects_non_finite_timestamps(self, bad):
        """NaN passes both order checks (every comparison is false) and
        one +inf would outlaw every later finite block."""
        _, pre, _ = make_split_stream(0)
        dyn = DynamicNeighborFinder(pre)
        t_next = pre.t_max + 1.0
        before = finder_state(dyn)
        for block in ([bad], [t_next, bad], [bad, t_next]):
            with pytest.raises(IngestError, match="finite"):
                dyn.append([0] * len(block), [3] * len(block), block)
        assert_same_state(before, finder_state(dyn))
        assert dyn.append([1], [2], [t_next]).tolist() == [PRETRAIN_EVENTS]
        assert dyn._t_max == t_next and dyn.num_events == PRETRAIN_EVENTS + 1
        slots = dyn.batch_most_recent(np.array([1]),
                                      np.array([t_next + 1.0]), 1)
        assert slots.neighbors.tolist() == [2]

    def test_a_sampler_pointed_at_the_live_finder_fails_by_name(self):
        """The live finder answers the encoder, not the samplers."""
        _, dyn = self._grown(5, 13)
        sampler = EtaBFSSampler(dyn, 4, 2)
        with pytest.raises(AttributeError, match="batch_before"):
            sampler.sample_batch(np.array([3]), np.array([120.0]))


# ======================================================================
# EmbeddingService: frozen-artifact queries + replay equivalence
# ======================================================================

class TestEmbeddingService:

    @pytest.mark.parametrize("backbone", ["tgn", "jodie", "dyrep"])
    def test_embed_matches_offline_encoder(self, backbone):
        """No ingestion: served rows == a frozen offline encoder's."""
        _, pre, _ = make_split_stream(3)
        artifact = pretrain_artifact(pre, tiny_config(backbone))
        service = EmbeddingService.from_artifact(artifact, history=pre)
        nodes = np.arange(0, NUM_NODES, 4)
        ts = np.full(len(nodes), pre.t_max + 1.0)
        served = service.embed(nodes, ts)
        config = artifact.run_config.pretrain
        with default_dtype(config.np_dtype):
            encoder = make_encoder(
                backbone, NUM_NODES, np.random.default_rng(config.seed),
                memory_dim=config.memory_dim, embed_dim=config.embed_dim,
                time_dim=config.time_dim, edge_dim=config.edge_dim,
                n_neighbors=config.n_neighbors, n_layers=config.n_layers,
                delta_scale=1.0, dtype=config.np_dtype)
            encoder.load_state_dict(artifact.result.encoder_state)
            encoder.load_memory(artifact.result.memory_state,
                                artifact.result.last_update)
            encoder.attach(pre)
            with no_grad():
                offline = np.asarray(
                    encoder.compute_embedding(nodes, ts).data)
        np.testing.assert_array_equal(served, offline)

    # ids: the names these cases carry in the tier-1 floor list.
    @pytest.mark.parametrize("backbone", ["tgn", "jodie", "dyrep"],
                             ids="sparse-{}".format)
    def test_ingest_replay_equivalence(self, backbone):
        """The acceptance criterion: serve-time ingestion == offline
        replay over the concatenated stream, bit for bit."""
        full, pre, suffix = make_split_stream(3)
        artifact = pretrain_artifact(pre, tiny_config(backbone))
        service = EmbeddingService.from_artifact(
            artifact, history=pre, compaction_threshold=50)
        service.ingest(suffix, block_size=40)
        nodes = np.arange(NUM_NODES)
        ts = np.full(NUM_NODES, full.t_max + 5.0)
        served = service.embed(nodes, ts)
        offline = offline_replay_embed(artifact, full, suffix, nodes, ts)
        np.testing.assert_array_equal(served, offline)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_ingest_rejects_non_finite_timestamps(self, bad):
        full, pre, suffix = make_split_stream(3)
        artifact = pretrain_artifact(pre, tiny_config())
        service = EmbeddingService.from_artifact(artifact, history=pre)
        clean = EmbeddingService.from_artifact(artifact, history=pre,
                                               cache_capacity=0)
        before = finder_state(service.finder)
        with pytest.raises(IngestError, match="finite"):
            service.ingest(src=[1], dst=[40], timestamps=[bad])
        assert_same_state(before, finder_state(service.finder))
        assert service.stats()["ingest"]["events"] == 0
        # The replica is as able to ingest as one that never saw the block.
        for replica in (service, clean):
            assert replica.ingest(suffix, block_size=40) == SUFFIX_EVENTS
        nodes = np.arange(NUM_NODES)
        ts = np.full(NUM_NODES, full.t_max + 5.0)
        np.testing.assert_array_equal(service.embed(nodes, ts),
                                      clean.embed(nodes, ts))

    def test_ingest_replay_equivalence_with_edge_features(self):
        full, pre, suffix = make_split_stream(9, edge_dim=3)
        artifact = pretrain_artifact(pre, tiny_config("tgn", edge_dim=3))
        service = EmbeddingService.from_artifact(artifact, history=pre)
        service.ingest(suffix, block_size=30)
        nodes = np.arange(0, NUM_NODES, 2)
        ts = np.full(len(nodes), full.t_max + 1.0)
        offline = offline_replay_embed(artifact, full, suffix, nodes, ts,
                                       block=30)
        np.testing.assert_array_equal(service.embed(nodes, ts), offline)

    def test_edge_feature_table_grows_in_place(self):
        """Small featured blocks append into one doubling buffer instead
        of copying the whole event-indexed table per block, and serving
        still equals the offline replay."""
        full, pre, suffix = make_split_stream(9, edge_dim=3)
        artifact = pretrain_artifact(pre, tiny_config("tgn", edge_dim=3))
        service = EmbeddingService.from_artifact(artifact, history=pre,
                                                 cache_capacity=0)
        tables = []
        for lo in range(0, suffix.num_events, 10):
            service.ingest(suffix.slice_index(lo, lo + 10))
            table = service._ingestor.edge_feats
            np.testing.assert_array_equal(
                table, full.edge_feats[:PRETRAIN_EVENTS + lo + 10])
            assert service.encoder._edge_feats.shape == table.shape
            tables.append(table)
        # The first block outgrows the pre-training table (260 rows) and
        # doubles it; the other eleven blocks fit in that buffer.
        assert not np.shares_memory(tables[0], pre.edge_feats)
        assert all(np.shares_memory(a, b)
                   for a, b in zip(tables, tables[1:]))
        nodes = np.arange(0, NUM_NODES, 2)
        ts = np.full(len(nodes), full.t_max + 1.0)
        offline = offline_replay_embed(artifact, full, suffix, nodes, ts,
                                       block=10)
        np.testing.assert_array_equal(service.embed(nodes, ts), offline)

    def test_serving_builds_no_graph_nodes(self):
        """Regression: the serve embed path runs fully under no_grad —
        embed → ingest → embed constructs zero autograd nodes — and
        equals the offline replay before and after the ingest."""
        from repro.nn.autograd import graph_nodes_created
        full, pre, suffix = make_split_stream(3)
        artifact = pretrain_artifact(pre, tiny_config("tgn"))
        service = EmbeddingService.from_artifact(artifact, history=pre)
        nodes = np.arange(0, NUM_NODES, 4)
        ts = np.full(len(nodes), pre.t_max + 1.0)
        nothing, head = suffix.slice_index(0, 0), suffix.slice_index(0, 40)
        np.testing.assert_array_equal(
            service.embed(nodes, ts),
            offline_replay_embed(artifact, pre, nothing, nodes, ts))
        offline_pre_ingest = offline_replay_embed(artifact, pre, nothing,
                                                  nodes, ts + 1.0)
        offline_post_ingest = offline_replay_embed(
            artifact, full.slice_index(0, PRETRAIN_EVENTS + 40), head,
            nodes, ts + 2.0)
        before = graph_nodes_created()
        served = service.embed(nodes, ts + 1.0)
        service.ingest(head)
        served2 = service.embed(nodes, ts + 2.0)
        assert graph_nodes_created() == before
        np.testing.assert_array_equal(served, offline_pre_ingest)
        np.testing.assert_array_equal(served2, offline_post_ingest)

    def test_every_row_count_matches_offline_replay(self):
        """50 requests of 50 distinct sizes, ingests interleaved (so the
        pass alternates between flushing pending messages and not), each
        equal to the offline replay of what was ingested so far."""
        full, pre, suffix = make_split_stream(3)
        artifact = pretrain_artifact(pre, tiny_config("tgn"))
        service = EmbeddingService.from_artifact(artifact, history=pre)
        rng = np.random.default_rng(5)
        ingested = 0
        for i, size in enumerate(rng.permutation(np.arange(1, 51))):
            if i % 10 == 5:
                service.ingest(suffix.slice_index(ingested, ingested + 8))
                ingested += 8
            nodes = rng.integers(0, NUM_NODES, size)
            ts = np.full(size, suffix.t_max + 1.0 + i)
            offline = offline_replay_embed(
                artifact, full.slice_index(0, PRETRAIN_EVENTS + ingested),
                suffix.slice_index(0, ingested), nodes, ts, block=8)
            np.testing.assert_array_equal(service.embed(nodes, ts), offline)
        assert ingested == 40

    def test_constant_serve_options_are_errors(self, capsys):
        """The coalescing wait, the rows-per-pass bound and the IVF list
        count, seed and rebuild fraction are constants: their knobs,
        parameters and flags are errors, not no-ops."""
        from repro.__main__ import main
        from repro.serve import CoarseQuantIndex, ServeConfig
        for knob in ({"window": 0.002}, {"max_batch": 64},
                     {"index_nlist": 4}):
            with pytest.raises(TypeError):
                ServeConfig(**knob)
        with pytest.raises(TypeError):
            MicroBatchPlanner(own_rows, window=0.002)
        with pytest.raises(TypeError):
            MicroBatchPlanner(own_rows, max_batch=64)
        for knob in ({"nlist": 4}, {"seed": 1}, {"rebuild_fraction": 0.25}):
            with pytest.raises(TypeError):
                CoarseQuantIndex(**knob)
        for flag, value in (("--window-ms", "1"), ("--index-nlist", "4")):
            with pytest.raises(SystemExit) as exit_info:
                main(["serve", "--artifact", "unused.npz", flag, value])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {flag} {value}" in err, err

    def test_inference_replay_switches_are_gone(self, capsys):
        """Serving has one engine: the knob, the flag and the constructor
        parameter that selected inference replay are errors, not no-ops."""
        from repro.__main__ import main
        from repro.nn import CompiledStep
        from repro.serve import ServeConfig
        with pytest.raises(TypeError):
            CompiledStep(lambda: None, mode="inference")
        for knob in ({"compile": False}, {"profile_kernels": True}):
            with pytest.raises(TypeError):
                ServeConfig(**knob)
        for flag in ("--no-compile", "--profile-kernels"):
            with pytest.raises(SystemExit) as exit_info:
                main(["serve", "--artifact", "unused.npz", flag])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_featured_service_requires_edge_feats_on_ingest(self):
        _, pre, suffix = make_split_stream(9, edge_dim=3)
        artifact = pretrain_artifact(pre, tiny_config("tgn", edge_dim=3))
        service = EmbeddingService.from_artifact(artifact, history=pre)
        with pytest.raises(IngestError):
            service.ingest(src=suffix.src[:2], dst=suffix.dst[:2],
                           timestamps=suffix.timestamps[:2])

    def test_fingerprint_mismatch_rejected(self):
        _, pre, suffix = make_split_stream(3)
        artifact = pretrain_artifact(pre, tiny_config())
        with pytest.raises(ServeError):
            EmbeddingService.from_artifact(artifact, history=suffix)
        service = EmbeddingService.from_artifact(
            artifact, history=suffix, verify_fingerprint=False)
        assert service.stats()["graph"]["num_events"] == suffix.num_events

    def test_score_links_dot_product_and_top_k(self):
        _, pre, _ = make_split_stream(3)
        artifact = pretrain_artifact(pre, tiny_config())
        service = EmbeddingService.from_artifact(artifact, history=pre)
        t = pre.t_max + 1.0
        src = np.array([0, 1, 2])
        dst = np.array([40, 41, 42])
        scores = service.score_links(src, dst, t)
        rows = service.embed(np.concatenate([src, dst]), t)
        np.testing.assert_allclose(
            scores, np.sum(rows[:3] * rows[3:], axis=1), rtol=1e-6)
        ids, top_scores = service.top_k(0, t, 5)
        assert len(ids) == 5
        assert np.all(np.diff(top_scores) <= 0)
        # Candidates default to observed destinations (bipartite upper half).
        assert set(ids.tolist()) <= set(np.unique(pre.dst).tolist())
        exhaustive = service.score_links(np.zeros(len(np.unique(pre.dst)),
                                                  dtype=np.int64),
                                         np.unique(pre.dst), t)
        assert top_scores[0] == pytest.approx(exhaustive.max())

    def test_cache_hits_and_touched_row_misses(self):
        """JODIE's embedding reads only the node's own row + clock, so an
        ingest makes exactly the touched probes miss."""
        _, pre, suffix = make_split_stream(3)
        artifact = pretrain_artifact(pre, tiny_config("jodie"))
        service = EmbeddingService.from_artifact(artifact, history=pre)
        stats = service.planner.counters
        t = pre.t_max + 1.0
        touched_src = int(suffix.src[0])
        touched_dst = int(suffix.dst[0])
        nodes = np.union1d(np.arange(10), [touched_src])
        n = len(nodes)
        first = service.embed(nodes, t)
        assert int(stats["cache_misses"]) == n
        second = service.embed(nodes, t)
        np.testing.assert_array_equal(first, second)
        assert int(stats["cache_hits"]) == n

        event = dict(src=[touched_src], dst=[touched_dst],
                     timestamps=[suffix.timestamps[0]])
        service.ingest(**event)
        third = service.embed(nodes, t)
        assert int(stats["cache_misses"]) == n + 1
        assert int(stats["stale_evictions"]) == 1   # refused, not absent
        assert int(stats["cache_hits"]) == 2 * n - 1

        # Every row, recomputed or served, equals a cache-less replica's.
        bare = EmbeddingService.from_artifact(artifact, history=pre,
                                              cache_capacity=0)
        bare.ingest(**event)
        np.testing.assert_array_equal(third, bare.embed(nodes, t))
        assert not np.array_equal(third, first)

    def test_cache_capacity_zero_disables_the_cache(self):
        _, pre, _ = make_split_stream(3)
        artifact = pretrain_artifact(pre, tiny_config())
        service = EmbeddingService.from_artifact(artifact, history=pre,
                                                 cache_capacity=0)
        t = pre.t_max + 1.0
        np.testing.assert_array_equal(service.embed([1, 2, 1], t),
                                      service.embed([1, 2, 1], t))
        assert service.planner.cache is None
        stats = service.stats()
        assert stats["cache_rows"] == 0
        assert stats["planner"]["cache_hits"] == 0
        assert stats["planner"]["cache_misses"] == 0
        assert stats["planner"]["deduped"] == 0

    def test_query_validation(self):
        _, pre, _ = make_split_stream(3)
        artifact = pretrain_artifact(pre, tiny_config())
        service = EmbeddingService.from_artifact(artifact, history=pre)
        with pytest.raises(ServeError):
            service.embed([NUM_NODES + 3], 10.0)
        with pytest.raises(ServeError):
            service.score_links([1, 2], [3], 10.0)
        with pytest.raises(ServeError):
            service.ingest()
        # Non-finite query times are refused, cache or no cache.
        bare = EmbeddingService.from_artifact(artifact, history=pre,
                                              cache_capacity=0)
        for replica in (service, bare):
            for t in (np.nan, np.inf, -np.inf):
                with pytest.raises(ServeError):
                    replica.embed([1, 2], t)
                with pytest.raises(ServeError):
                    replica.score_links([1], [2], [t])
                with pytest.raises(ServeError):
                    replica.top_k(1, t, 3)
            assert int(replica.planner.counters["queries"]) == 0


# ======================================================================
# Cache freshness: every cached answer equals the cache-free service's
# ======================================================================

def field_config(backbone: str, n_layers: int = 1) -> RunConfig:
    """Two sampled neighbours per hop: fields small enough that the
    60-node stream has nodes outside them."""
    config = tiny_config(backbone)
    return dataclasses.replace(config, pretrain=dataclasses.replace(
        config.pretrain, n_neighbors=2, n_layers=n_layers))


class TestCacheFreshness:

    def test_probes_between_ingest_blocks_match_cache_free(self):
        """The ROADMAP item-1 repro: a TGN row reads its sampled
        neighbours' memory, so touching a neighbour must make it a miss
        (15 of these 20 rows were served stale when only the touched
        nodes themselves were invalidated)."""
        _, pre, suffix = make_split_stream(3)
        artifact = pretrain_artifact(pre, tiny_config("tgn"))
        knobs = dict(history=pre, background_compaction=False)
        cached = EmbeddingService.from_artifact(artifact, **knobs)
        oracle = EmbeddingService.from_artifact(artifact, cache_capacity=0,
                                                **knobs)
        probes = np.arange(0, NUM_NODES, 3)
        t = float(suffix.timestamps[-1]) + 1.0
        for lo in range(0, suffix.num_events, 10):
            block = suffix.slice_index(lo, min(lo + 10, suffix.num_events))
            cached.ingest(block)
            oracle.ingest(block)
            cached.embed(probes, t)
        np.testing.assert_array_equal(cached.embed(probes, t),
                                      oracle.embed(probes, t))
        stats = cached.planner.counters
        assert int(stats["cache_hits"]) > 0
        assert int(stats["stale_evictions"]) > 0

    @pytest.mark.parametrize("backbone,n_layers,reads_neighbours", [
        ("tgn", 1, True), ("tgn", 2, True),
        ("jodie", 1, False), ("dyrep", 1, False)])
    def test_receptive_field_decides_hit_or_miss(self, backbone, n_layers,
                                                 reads_neighbours):
        _, pre, suffix = make_split_stream(3)
        artifact = pretrain_artifact(pre, field_config(backbone, n_layers))
        finder = NeighborFinder(pre)
        t = pre.t_max + 1.0
        tau = float(suffix.timestamps[0])
        users = np.arange(1, NUM_NODES // 2)        # node 0 is the dummy
        items = np.arange(NUM_NODES // 2, NUM_NODES)

        def hops(nodes, at):
            found = [finder.most_recent(int(n), at, 2)[0] for n in nodes]
            return np.unique(np.concatenate(found)) if found else nodes[:0]

        def check(u, at, src, dst, expect_hit):
            """Cache u's row, ingest one event, ask again."""
            cached = EmbeddingService.from_artifact(artifact, history=pre)
            oracle = EmbeddingService.from_artifact(artifact, history=pre,
                                                    cache_capacity=0)
            cached.embed([u], at)
            for service in (cached, oracle):
                service.ingest(src=[src], dst=[dst], timestamps=[tau])
            stats = cached.planner.counters
            hits = int(stats["cache_hits"])
            row = cached.embed([u], at)
            assert int(stats["cache_hits"]) - hits == int(expect_hit)
            np.testing.assert_array_equal(row, oracle.embed([u], at))

        u = 5
        near = hops([u], t)                          # items one hop away
        far = hops(near, t)                          # users two hops away
        field = np.concatenate([[u], near, far if n_layers == 2 else []])
        outside_user = int(np.setdiff1d(users, field)[0])
        outside_item = int(np.setdiff1d(items, field)[0])
        # An event between two nodes outside the field: a hit everywhere.
        check(u, t, outside_user, outside_item, True)
        # Only a sampled neighbour touched: a miss iff neighbours are read.
        check(u, t, outside_user, int(near[0]), not reads_neighbours)
        if n_layers == 2:
            # Only a two-hop neighbour touched.
            two_hop = int(np.setdiff1d(far, [u])[0])
            check(u, t, two_hop, outside_item, False)
        # The node itself touched: a miss everywhere.
        check(u, t, u, outside_item, False)
        # A row without history before its query time attends over the
        # dummy slot, node 0 - so only node 0's state can stale it.
        early = float(finder.before(u, np.inf)[1][0]) - 1e-3
        assert len(finder.before(u, early)[0]) == 0
        check(u, early, 0, outside_item, not reads_neighbours)
        check(u, early, outside_user, outside_item, True)

    def test_two_query_times_for_one_node_in_one_request(self):
        _, pre, _ = make_split_stream(3)
        artifact = pretrain_artifact(pre, tiny_config("tgn"))
        cached = EmbeddingService.from_artifact(artifact, history=pre)
        oracle = EmbeddingService.from_artifact(artifact, history=pre,
                                                cache_capacity=0)
        nodes = np.array([4, 9, 4, 4, 9, 7])
        ts = pre.t_max + np.array([1.0, 1.0, 2.0, 1.0, 3.0, 2.0])
        want = oracle.embed(nodes, ts)
        for _ in range(2):                  # cold, then partly cached
            np.testing.assert_array_equal(cached.embed(nodes, ts), want)
        stats = cached.planner.counters
        assert int(stats["deduped"]) == 2   # (4, +1) twice, both passes
        # One row per node stays cached: its newest query time.
        hits = int(stats["cache_hits"])
        cached.embed([4, 9, 7], pre.t_max + np.array([2.0, 3.0, 2.0]))
        assert int(stats["cache_hits"]) - hits == 3

    def test_query_times_beyond_int64_quanta_match_cache_free(self):
        """Query times past 2**63 microseconds (a microsecond epoch, say):
        the float64 keys must stay distinct and an uncached node must be
        computed, not answered from the empty slot."""
        _, pre, _ = make_split_stream(3)
        artifact = pretrain_artifact(pre, tiny_config("tgn"))
        cached = EmbeddingService.from_artifact(artifact, history=pre)
        oracle = EmbeddingService.from_artifact(artifact, history=pre,
                                                cache_capacity=0)
        stats = cached.planner.counters
        for t in (1e13, 1e13 + 8.0, 4e15, -1e13):
            want = oracle.embed([1, 2], t)
            hits = int(stats["cache_hits"])
            np.testing.assert_array_equal(cached.embed([1, 2], t), want)
            assert int(stats["cache_hits"]) == hits        # another time
            np.testing.assert_array_equal(cached.embed([1, 2], t), want)
            assert int(stats["cache_hits"]) == hits + 2
        nodes = np.array([1, 1, 2, 1])
        ts = np.array([1e13, 1e13 + 8.0, 1e13, 1e13])
        np.testing.assert_array_equal(cached.embed(nodes, ts),
                                      oracle.embed(nodes, ts))

    def test_rows_of_another_time_are_not_served(self):
        cached = EmbeddingService.from_artifact(
            parent.ARTIFACT_PATH, history=parent.tiny_stream(),
            background_compaction=False)
        oracle = EmbeddingService.from_artifact(
            parent.ARTIFACT_PATH, history=parent.tiny_stream(),
            background_compaction=False, cache_capacity=0)
        nodes = parent.EMBED_NODES
        cached.embed(nodes, 30.0)
        stats = cached.planner.counters
        # However close, another float64 time is another cache key.
        for t in (30.0 + 3e-7, 90.0):
            hits = int(stats["cache_hits"])
            np.testing.assert_array_equal(cached.embed(nodes, t),
                                          oracle.embed(nodes, t))
            assert int(stats["cache_hits"]) == hits
        # Nor does one request fold two such times into one row.
        ts = np.array([60.0, 60.0 + 3e-7])
        before = int(stats["cache_misses"]), int(stats["deduped"])
        np.testing.assert_array_equal(cached.embed([3, 3], ts),
                                      oracle.embed([3, 3], ts))
        assert (int(stats["cache_misses"]) - before[0],
                int(stats["deduped"]) - before[1]) == (2, 0)


# ======================================================================
# Planner / cache units
# ======================================================================

def make_cache(capacity: int, num_nodes: int = 100, width: int = 1):
    """A RowCache over its own touch counts (returned for the test to
    advance, as the ingest path would)."""
    touch_count = np.zeros(num_nodes + 1, dtype=np.int64)
    return RowCache(capacity, 2, width, touch_count), touch_count


def own_rows(nodes: np.ndarray, ts: np.ndarray):
    """A compute whose row is the node id and whose field is the node."""
    nodes = np.asarray(nodes)
    return (np.repeat(nodes[:, None].astype(float), 2, axis=1),
            nodes[:, None])


class TestPlanner:

    def test_lru_eviction_at_capacity(self):
        cache, _ = make_cache(capacity=8)
        zeros = np.zeros(4, dtype=np.int64)
        for lo in (0, 4):                             # fills the cache
            nodes = np.arange(lo, lo + 4)
            cache.put(nodes, zeros, *own_rows(nodes, None))
        assert len(cache) == 8
        # Nodes 0..3 are used again, so 4..7 are the least recent.
        assert cache.lookup(np.arange(4), zeros)[1].all()
        nodes = np.arange(8, 11)
        cache.put(nodes, zeros[:3], *own_rows(nodes, None))
        assert len(cache) <= 8
        slots, serve, _ = cache.lookup(np.arange(11), np.zeros(11, int))
        assert serve[:4].all() and serve[8:].all()
        assert (~serve[4:8]).sum() == 3               # three of 4..7 went
        np.testing.assert_array_equal(cache.rows[slots[serve]][:, 0],
                                      np.arange(11)[serve])
        # A put larger than the cache keeps its last `capacity` rows.
        nodes = np.arange(20, 32)
        cache.put(nodes, np.zeros(12, int), *own_rows(nodes, None))
        assert len(cache) == 8
        assert cache.lookup(nodes, np.zeros(12, int))[1].sum() == 8

    def test_one_row_per_node_replaced_by_a_new_query_time(self):
        cache, _ = make_cache(capacity=4)
        node = np.array([3])
        cache.put(node, np.array([10]), *own_rows(node, None))
        assert cache.lookup(node, np.array([10]))[1].all()
        assert not cache.lookup(node, np.array([11]))[1].any()
        cache.put(node, np.array([11]), *own_rows(node, None))
        assert len(cache) == 1
        assert not cache.lookup(node, np.array([10]))[1].any()

    def test_freshness_follows_the_field_clock(self):
        """One touch of any field node refuses the row; touches outside
        the field do not; ``put`` reads the clock afresh."""
        cache, count = make_cache(capacity=4, width=3)
        node, t = np.array([3]), np.array([0])
        field = np.array([[3, 7, 100]])               # 100 pads the field

        def put():
            cache.put(node, t, np.ones((1, 2)), field)

        count[7] = 1                                  # touched before put
        put()
        assert cache.lookup(node, t)[1:] == (True, 0)
        count[50] += 9                                # outside the field
        assert cache.lookup(node, t)[1:] == (True, 0)
        for member in (3, 7):                         # the node, a neighbour
            count[member] += 1
            assert cache.lookup(node, t)[1:] == (False, 1)
            put()
            assert cache.lookup(node, t)[1:] == (True, 0)

    def test_planner_dedup_single_pass(self):
        calls = []

        def compute(nodes, ts):
            calls.append(len(nodes))
            return own_rows(nodes, ts)

        planner = MicroBatchPlanner(compute, cache=make_cache(16)[0])
        nodes = np.array([5, 5, 7, 5], dtype=np.int64)
        rows = planner.embed(nodes, np.zeros(4))
        assert calls == [2]                        # deduped to {5, 7}
        np.testing.assert_array_equal(rows[:, 0], [5.0, 5.0, 7.0, 5.0])
        planner.embed(nodes, np.zeros(4))
        assert calls == [2]                        # all served from cache
        assert int(planner.counters["cache_hits"]) == 2
        assert int(planner.counters["deduped"]) == 4

    def test_no_query_time_is_answered_from_the_null_slot(self):
        """Nodes without a row map to the null slot; whatever the query
        time - NaN and infinities included - it must never be served."""
        calls = []

        def compute(nodes, ts):
            calls.append(len(nodes))
            return own_rows(nodes, ts)

        planner = MicroBatchPlanner(compute, cache=make_cache(16)[0])
        nodes = np.array([5, 7], dtype=np.int64)
        for n, t in enumerate((np.nan, np.inf, -np.inf, 1e300, -1e300)):
            rows = planner.embed(nodes + 10 * n, np.full(2, t))
            np.testing.assert_array_equal(rows[:, 0], nodes + 10 * n)
        assert calls == [2] * 5 and int(planner.counters["cache_hits"]) == 0
        # A NaN time equals no time: computed again, never a hit.
        planner.embed(nodes, np.full(2, np.nan))
        assert calls == [2] * 6 and int(planner.counters["cache_hits"]) == 0

    def test_pass_cost_is_independent_of_row_count(self, monkeypatch):
        """One 4096-row request, half of it duplicates: one compute call
        and a fixed number of registry increments - no per-row Python."""
        from repro.obs.metrics import Counter
        calls, increments = [], []

        def compute(nodes, ts):
            calls.append(len(nodes))
            return own_rows(nodes, ts)

        planner = MicroBatchPlanner(compute,
                                    cache=make_cache(4096, 5000)[0])
        inc = Counter.inc
        monkeypatch.setattr(Counter, "inc", lambda self, amount=1:
                            (increments.append(self.name),
                             inc(self, amount))[1])
        nodes = np.tile(np.arange(2048, dtype=np.int64), 2)
        planner.embed(nodes, np.zeros(4096))
        planner.embed(nodes, np.zeros(4096))
        assert calls == [2048]
        assert len(increments) <= 2 * 10
        stats = planner.counters
        assert (int(stats["deduped"]), int(stats["cache_misses"]),
                int(stats["cache_hits"])) \
            == (4096, 2048, 2048)

    def test_planner_coalesces_concurrent_requests(self):
        """Callers that arrive while a pass runs share the next pass; no
        wait is needed for them to coalesce."""
        import threading
        import time

        passes = []
        release = threading.Event()

        def compute(nodes, ts):
            passes.append(len(nodes))
            assert release.wait(30.0)   # the first pass holds the queue
            return own_rows(nodes, ts)

        planner = MicroBatchPlanner(compute, cache=None)
        results = {}

        def query(i):
            results[i] = planner.embed(np.array([i]), np.array([0.0]))

        def await_true(condition):
            deadline = time.monotonic() + 30.0
            while not condition():
                assert time.monotonic() < deadline
                time.sleep(0.001)

        threads = [threading.Thread(target=query, args=(i,))
                   for i in range(6)]
        threads[0].start()
        await_true(lambda: passes)              # the leader is computing
        for thread in threads[1:]:
            thread.start()
        # The other five are queued once each has counted its request.
        await_true(lambda: int(planner.counters["requests"]) == 6)
        release.set()
        for thread in threads:
            thread.join()
        for i in range(6):
            assert results[i][0, 0] == float(i)
        assert passes == [1, 5]
        assert int(planner.counters["coalesced"]) == 5

    def test_top_k_from_scores(self):
        ids, scores = top_k_from_scores(np.array([4, 9, 2, 7]),
                                        np.array([0.1, 0.9, 0.9, 0.5]), 3)
        np.testing.assert_array_equal(ids, [2, 9, 7])   # tie -> lower id
        np.testing.assert_array_equal(scores, [0.9, 0.9, 0.5])
        ids, _ = top_k_from_scores(np.array([1, 2]), np.array([1.0, 2.0]), 10)
        np.testing.assert_array_equal(ids, [2, 1])


# ======================================================================
# HTTP frontend
# ======================================================================

class TestHttpFrontend:

    @pytest.fixture()
    def service(self):
        _, pre, _ = make_split_stream(3)
        artifact = pretrain_artifact(pre, tiny_config())
        return EmbeddingService.from_artifact(artifact, history=pre)

    def test_http_round_trip_matches_local_client(self, service):
        local = LocalClient(service)
        server, _ = start_http_server(service)
        try:
            client = HttpClient(f"http://127.0.0.1:"
                                f"{server.server_address[1]}")
            assert client.health() == {"status": "ok"}
            t = 150.0
            assert client.embed([1, 2, 3], t) == local.embed([1, 2, 3], t)
            assert client.score([0, 1], [40, 41], t) \
                == local.score([0, 1], [40, 41], t)
            assert client.topk(0, t, 4) == local.topk(0, t, 4)
            assert client.ingest([1], [40], [t + 1.0]) == {"ingested": 1}
            # Post-ingest queries reflect the new event on both paths.
            assert client.embed([1], t + 2.0) == local.embed([1], t + 2.0)
            stats = client.stats()
            assert stats["graph"]["num_events"] == PRETRAIN_EVENTS + 1
            assert stats["ingest"]["events"] == 1
        finally:
            server.shutdown()

    def test_http_error_handling(self, service):
        import urllib.error
        import urllib.request

        server, _ = start_http_server(service)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            request = urllib.request.Request(
                f"{base}/embed", data=json.dumps({"nodes": [1]}).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400       # missing "ts"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nope", timeout=10)
            assert excinfo.value.code == 404
        finally:
            server.shutdown()

    def test_http_negative_content_length_is_a_400(self, service):
        """``rfile.read(-1)`` reads to EOF, so a keep-alive request with
        ``Content-Length: -1`` would hang its handler thread."""
        import socket

        server, _ = start_http_server(service)
        port = server.server_address[1]
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=1.0) as raw:
                raw.sendall(b"POST /embed HTTP/1.1\r\n"
                            b"Host: 127.0.0.1\r\n"
                            b"Content-Type: application/json\r\n"
                            b"Content-Length: -1\r\n\r\n")
                status = raw.recv(1024).split(b"\r\n", 1)[0]
            assert status.startswith(b"HTTP/1.1 400"), status
            client = HttpClient(f"http://127.0.0.1:{port}")
            assert client.health() == {"status": "ok"}
        finally:
            server.shutdown()

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_http_ingest_rejects_non_finite_timestamps(self, service, bad):
        """``json.loads`` passes NaN / Infinity through ``POST /ingest``."""
        import urllib.error

        server, _ = start_http_server(service)
        try:
            client = HttpClient(f"http://127.0.0.1:"
                                f"{server.server_address[1]}")
            before = finder_state(service.finder)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                client.ingest([1], [40], [bad])
            assert excinfo.value.code == 400
            assert "finite" in json.loads(excinfo.value.read())["error"]
            assert_same_state(before, finder_state(service.finder))
            t_next = service.finder._t_max + 1.0
            assert client.ingest([1], [40], [t_next]) == {"ingested": 1}
            assert client.stats()["graph"]["num_events"] \
                == PRETRAIN_EVENTS + 1
        finally:
            server.shutdown()


# ======================================================================
# Artifact format v2 + pipeline export
# ======================================================================

class TestArtifactV2:

    def _artifact(self):
        _, pre, _ = make_split_stream(3)
        return pretrain_artifact(pre, tiny_config()), pre

    def test_v2_round_trip_without_bundle(self, tmp_path):
        artifact, _ = self._artifact()
        path = str(tmp_path / "plain.npz")
        artifact.save(path)
        loaded = PretrainArtifact.load(path)
        assert loaded.format_version == ARTIFACT_FORMAT_VERSION == 2
        assert loaded.finetuned is None
        np.testing.assert_array_equal(loaded.result.memory_state,
                                      artifact.result.memory_state)

    def test_v2_round_trip_with_bundle(self, tmp_path):
        artifact, _ = self._artifact()
        artifact.finetuned = FineTunedBundle(
            task="link_prediction", strategy="full",
            encoder_state={"w": np.arange(4.0)},
            head_state={"net.0.weight": np.eye(2)},
            eie_state=None,
            history=[{"epoch": 0, "val_auc": 0.7}])
        path = str(tmp_path / "bundled.npz")
        artifact.save(path)
        loaded = PretrainArtifact.load(path)
        bundle = loaded.finetuned
        assert bundle is not None
        assert (bundle.task, bundle.strategy) == ("link_prediction", "full")
        assert bundle.eie_state is None
        np.testing.assert_array_equal(bundle.encoder_state["w"],
                                      np.arange(4.0))
        np.testing.assert_array_equal(bundle.head_state["net.0.weight"],
                                      np.eye(2))
        assert bundle.history == [{"epoch": 0, "val_auc": 0.7}]
        assert loaded.describe()["finetuned"]["strategy"] == "full"

    def test_v1_file_still_loads(self, tmp_path):
        artifact, _ = self._artifact()
        v2_path = tmp_path / "v2.npz"
        artifact.save(str(v2_path))
        with np.load(str(v2_path)) as payload:
            arrays = {key: payload[key] for key in payload.files}
        meta = json.loads(str(arrays.pop("__meta__")))
        meta["format_version"] = 1
        meta.pop("finetuned", None)
        arrays["__meta__"] = np.array(json.dumps(meta))
        v1_path = str(tmp_path / "v1.npz")
        np.savez_compressed(v1_path, **arrays)
        loaded = PretrainArtifact.load(v1_path)
        assert loaded.format_version == 1
        assert loaded.finetuned is None
        np.testing.assert_array_equal(loaded.result.memory_state,
                                      artifact.result.memory_state)
        # Re-saving a v1 artifact upgrades it to the current format.
        upgraded = str(tmp_path / "upgraded.npz")
        loaded.save(upgraded)
        assert PretrainArtifact.load(upgraded).format_version == 2

    def test_fingerprint_distinguishes_edge_features(self):
        _, plain, _ = make_split_stream(3)
        _, featured, _ = make_split_stream(3, edge_dim=2)
        assert stream_fingerprint(plain) != stream_fingerprint(featured)
        featured2 = dataclasses.replace(
            featured, edge_feats=featured.edge_feats + 1.0)
        assert stream_fingerprint(featured) != stream_fingerprint(featured2)
        labeled = dataclasses.replace(
            plain, labels=np.zeros(plain.num_events))
        assert stream_fingerprint(plain) != stream_fingerprint(labeled)


def _quick_run_config() -> RunConfig:
    return RunConfig(
        backbone="tgn", task="link_prediction", strategy="eie-gru",
        data=DataConfig(dataset="meituan", num_users=20, num_items=15,
                        events_main=400),
        pretrain=CPDGConfig(epochs=1, batch_size=100, memory_dim=8,
                            embed_dim=8, time_dim=4, eta=4, epsilon=4,
                            num_checkpoints=3, seed=0),
        finetune=FineTuneConfig(epochs=1, batch_size=100, seed=0))


class TestPipelineServingPath:

    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("export") / "serving.npz")
        pipeline = (Pipeline(_quick_run_config())
                    .pretrain()
                    .finetune()
                    .export_for_serving(path))
        return pipeline, path

    def test_export_carries_finetuned_bundle(self, exported):
        pipeline, path = exported
        loaded = PretrainArtifact.load(path)
        assert loaded.finetuned is not None
        assert loaded.finetuned.strategy == "eie-gru"
        assert loaded.finetuned.eie_state is not None
        assert loaded.finetuned.history == pipeline.history

    def test_evaluate_loads_saved_head_without_refitting(self, exported,
                                                         monkeypatch):
        _, path = exported
        pipeline = Pipeline.from_artifact(path)
        monkeypatch.setattr(
            Pipeline, "finetune",
            lambda *a, **k: pytest.fail("evaluate re-ran fine-tuning "
                                        "despite a saved head"))
        metrics = pipeline.evaluate()
        assert 0.0 <= metrics.auc <= 1.0
        assert pipeline.history  # restored from the bundle

    def test_service_uses_finetuned_head(self, exported):
        _, path = exported
        service = EmbeddingService.from_artifact(path)
        assert service.stats()["scorer"] == "finetuned-head"
        t = 1000.0
        scores = service.score_links([0, 1], [25, 30], t)
        rows = service.embed([0, 1, 25, 30], t)
        dots = np.sum(rows[:2] * rows[2:], axis=1)
        # The head is a trained MLP — not the dot product.
        assert not np.allclose(scores, dots)
        ids, _ = service.top_k(0, t, 3)
        assert len(ids) == 3
