"""Unit and integration tests for the baseline method zoo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (BASELINES, BaselinePretrainConfig, DDGCLCritic,
                             DDGCLEncoder, DGIDiscriminator, GATEncoder,
                             GINEncoder, GPTGNNHeads, GraphSAGEEncoder,
                             SelfRGNNEncoder, baseline_names, build_baseline,
                             ddgcl_loss, dgi_loss, selfrgnn_loss)
from repro.datasets import split_downstream
from repro.graph import chronological_batches
from repro.nn import Tensor
from repro.tasks import FineTuneConfig, FineTuneStrategy, LinkPredictionTask

STATIC_ENCODERS = [GraphSAGEEncoder, GATEncoder, GINEncoder, SelfRGNNEncoder]


class TestStaticEncoders:
    @pytest.mark.parametrize("encoder_cls", STATIC_ENCODERS)
    def test_embedding_shape(self, encoder_cls, tiny_stream, rng):
        enc = encoder_cls(tiny_stream.num_nodes, 8, rng, n_neighbors=3)
        enc.attach(tiny_stream)
        z = enc.compute_embedding(np.array([0, 1, 2]), np.full(3, 25.0))
        assert z.shape == (3, 8)

    @pytest.mark.parametrize("encoder_cls", STATIC_ENCODERS)
    def test_no_future_leakage(self, encoder_cls, tiny_stream, rng):
        """Embeddings at time t must not depend on events after t."""
        enc = encoder_cls(tiny_stream.num_nodes, 8, rng, n_neighbors=3)
        cutoff = tiny_stream.timestamps[tiny_stream.num_events // 2]
        enc.attach(tiny_stream)
        z_full = enc.compute_embedding(np.array([0]), np.array([cutoff])).data
        enc.attach(tiny_stream.slice_time(t_end=cutoff))
        z_cut = enc.compute_embedding(np.array([0]), np.array([cutoff])).data
        np.testing.assert_allclose(z_full, z_cut, atol=1e-10)

    def test_requires_attach(self, rng):
        enc = GraphSAGEEncoder(10, 8, rng)
        with pytest.raises(RuntimeError):
            enc.compute_embedding(np.array([0]), np.array([0.0]))

    def test_memory_protocol_is_noop(self, tiny_stream, rng):
        enc = GraphSAGEEncoder(tiny_stream.num_nodes, 8, rng)
        enc.attach(tiny_stream)
        state, last = enc.memory_snapshot()
        assert state.size == 0
        enc.load_memory(state, last)   # must not raise
        enc.reset_memory()
        enc.flush_messages()
        enc.end_batch()

    def test_isolated_node_embedding_finite(self, tiny_stream, rng):
        enc = GATEncoder(tiny_stream.num_nodes, 8, rng, n_neighbors=3)
        enc.attach(tiny_stream)
        # Query before any events: all nodes are isolated.
        z = enc.compute_embedding(np.array([0, 5]), np.zeros(2))
        assert np.isfinite(z.data).all()


class TestPretrainingLoops:
    @pytest.mark.parametrize("name", baseline_names())
    def test_all_baselines_pretrain_and_finetune(self, name, tiny_stream, rng):
        spec = BASELINES[name]
        enc = spec.build(tiny_stream.num_nodes, 8, rng, n_neighbors=3,
                         memory_dim=8, time_dim=4, edge_dim=4)
        cfg = BaselinePretrainConfig(epochs=1, batch_size=64, seed=0)
        losses = spec.pretrain(enc, tiny_stream, cfg)
        assert len(losses) == int(np.ceil(tiny_stream.num_events / 64))
        assert np.isfinite(losses).all()

        ft = FineTuneConfig(epochs=1, batch_size=64, patience=1, seed=0)
        strategy = FineTuneStrategy(name=name, encoder=enc, eie=None)
        metrics = LinkPredictionTask(strategy, split_downstream(tiny_stream),
                                     ft).run()
        assert np.isfinite(metrics.auc)

    def test_pretraining_moves_static_params(self, tiny_stream, rng):
        spec = BASELINES["graphsage"]
        enc = spec.build(tiny_stream.num_nodes, 8, rng, n_neighbors=3)
        before = {k: v.copy() for k, v in enc.state_dict().items()}
        spec.pretrain(enc, tiny_stream,
                      BaselinePretrainConfig(epochs=1, batch_size=64))
        after = enc.state_dict()
        assert any(np.abs(before[k] - after[k]).max() > 1e-12 for k in before)

    def test_unknown_baseline_rejected(self, rng):
        with pytest.raises(KeyError):
            build_baseline("gpt5", 10, 8, rng)

    def test_registry_covers_paper_method_zoo(self):
        expected = {"graphsage", "gin", "gat", "dgi", "gpt-gnn", "dyrep",
                    "jodie", "tgn", "ddgcl", "selfrgnn"}
        assert set(baseline_names()) == expected


class TestDGI:
    def test_discriminator_scores_shape(self, rng):
        disc = DGIDiscriminator(8, rng)
        scores = disc(Tensor(rng.normal(size=(5, 8))),
                      Tensor(rng.normal(size=8)))
        assert scores.shape == (5,)

    def test_loss_finite_and_differentiable(self, tiny_stream, rng):
        enc = GraphSAGEEncoder(tiny_stream.num_nodes, 8, rng, n_neighbors=3)
        enc.attach(tiny_stream)
        disc = DGIDiscriminator(8, rng)
        nodes = tiny_stream.src[:16]
        ts = tiny_stream.timestamps[:16] + 1.0
        loss = dgi_loss(enc, disc, nodes, ts, rng)
        loss.backward()
        assert np.isfinite(loss.item())
        assert disc.weight.grad is not None


class TestDDGCL:
    def test_encoder_uses_time(self, tiny_stream, rng):
        enc = DDGCLEncoder(tiny_stream.num_nodes, 8, rng, time_dim=4,
                           n_neighbors=3)
        enc.attach(tiny_stream)
        node = np.array([int(tiny_stream.src[10])])
        t_query = tiny_stream.t_max
        z1 = enc.compute_embedding(node, np.array([t_query])).data
        z2 = enc.compute_embedding(node, np.array([t_query + 20.0])).data
        assert np.abs(z1 - z2).max() > 1e-9

    def test_loss_runs(self, tiny_stream, rng):
        enc = DDGCLEncoder(tiny_stream.num_nodes, 8, rng, time_dim=4,
                           n_neighbors=3)
        enc.attach(tiny_stream)
        critic = DDGCLCritic(8, 4, rng)
        loss = ddgcl_loss(enc, critic, tiny_stream.src[:8],
                          tiny_stream.timestamps[:8] + 5.0, 2.0, rng)
        loss.backward()
        assert np.isfinite(loss.item())


class TestSelfRGNN:
    def test_curvature_clipped_negative(self, rng):
        enc = SelfRGNNEncoder(20, 8, rng, n_neighbors=3)
        kappa = enc.curvature(np.array([0.0, 50.0, 100.0])).data
        assert (kappa < 0).all()
        assert (kappa >= -5.0).all()

    def test_loss_is_nonnegative(self, tiny_stream, rng):
        enc = SelfRGNNEncoder(tiny_stream.num_nodes, 8, rng, n_neighbors=3)
        enc.attach(tiny_stream)
        loss = selfrgnn_loss(enc, tiny_stream.src[:8],
                             tiny_stream.timestamps[:8], 1.0)
        assert loss.item() >= 0.0


class TestGPTGNN:
    def test_heads_without_edge_features(self, rng):
        heads = GPTGNNHeads(8, 0, rng)
        assert not hasattr(heads, "attr_net")

    def test_loss_includes_attribute_term(self, tiny_stream, rng):
        from repro.baselines import gptgnn_loss
        from repro.graph import chronological_batches
        enc = GraphSAGEEncoder(tiny_stream.num_nodes, 8, rng, n_neighbors=3)
        enc.attach(tiny_stream)
        heads = GPTGNNHeads(8, tiny_stream.edge_feats.shape[1], rng)
        batch = next(chronological_batches(tiny_stream, 32, rng))
        with_attr = gptgnn_loss(enc, heads, batch, tiny_stream.edge_feats)
        without = gptgnn_loss(enc, heads, batch, None)
        assert with_attr.item() > without.item()


class TestPaddedBlock:
    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_matches_per_node_padding(self, tiny_stream, count):
        """Right-aligned neighbours, node 0 and a True mask on the left
        padding, as built row by row from per-node ``most_recent``."""
        from repro.baselines.static_base import padded_block
        from repro.graph import NeighborFinder
        from tests.test_ragged_attention import padded_most_recent
        finder = NeighborFinder(tiny_stream)
        nodes = np.arange(tiny_stream.num_nodes)
        ts = np.linspace(0.0, tiny_stream.t_max + 1.0, len(nodes))
        neighbors, _, _, mask = padded_most_recent(finder, nodes, ts, count)
        got = padded_block(finder.batch_most_recent(nodes, ts, count), count)
        np.testing.assert_array_equal(got[0], neighbors)
        np.testing.assert_array_equal(got[1], mask)
        assert mask.all(axis=1).any() and (~mask).all(axis=1).any()


class TestGoldenNeighborConsumers:
    """The baselines and ε-DFS against ``tests/fixtures/golden_baselines.npz``
    (recorded with the padded neighbour query), bit for bit."""

    def test_matches_recording(self):
        from tests.golden_baselines import GOLDEN_PATH, build_golden
        expected = np.load(GOLDEN_PATH)
        actual = build_golden()
        assert sorted(actual) == sorted(expected.files)
        for key in expected.files:
            np.testing.assert_array_equal(actual[key], expected[key],
                                          err_msg=key)
