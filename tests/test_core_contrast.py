"""Unit tests for contrastive objectives, pretext, EIE and checkpoints."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (CheckpointSchedule, CPDGConfig, EIEModule, EIE_FUSERS,
                        LinkPredictionHead, MemoryCheckpoints,
                        contrast_loss_from_pairs, draw_other_roots,
                        subgraph_readout)
from repro.nn import Tensor
from repro.stream import ProducerSpec, SamplingContext, produce_batch


class TestSubgraphReadout:
    def test_mean_pooling(self):
        memory = Tensor(np.arange(12, dtype=float).reshape(4, 3))
        out = subgraph_readout(memory, [np.array([0, 2]), np.array([3])])
        np.testing.assert_allclose(out.data[0], (memory.data[0] + memory.data[2]) / 2)
        np.testing.assert_allclose(out.data[1], memory.data[3])

    def test_empty_subgraph_pools_to_zero(self):
        memory = Tensor(np.ones((4, 3)))
        out = subgraph_readout(memory, [np.array([], dtype=int), np.array([1])])
        np.testing.assert_allclose(out.data[0], np.zeros(3))
        np.testing.assert_allclose(out.data[1], np.ones(3))

    def test_all_empty(self):
        memory = Tensor(np.ones((4, 3)))
        out = subgraph_readout(memory, [np.array([], dtype=int)] * 2)
        assert out.shape == (2, 3)
        assert out.data.sum() == 0.0

    def test_gradients_flow_to_memory(self):
        memory = Tensor(np.ones((4, 3)), requires_grad=True)
        out = subgraph_readout(memory, [np.array([0, 1])])
        out.sum().backward()
        np.testing.assert_allclose(memory.grad[0], np.full(3, 0.5))
        np.testing.assert_allclose(memory.grad[2], np.zeros(3))


def produce_last_batch(stream, batch_size=6, **spec):
    """The producer's last batch of one epoch over ``stream`` — the batch
    with the most history before it."""
    ctx = SamplingContext(ProducerSpec(batch_size=batch_size, seed=0, **spec),
                          stream=stream)
    return produce_batch(ctx, list(ctx.spec.make_plan(stream.num_events))[-1])


class TestContrasts:
    """The contrasts are the producer's subgraph pairs pooled and scored
    by :func:`contrast_loss_from_pairs`."""

    def test_temporal_contrast_loss_scalar(self, tiny_stream, rng):
        prepared = produce_last_batch(tiny_stream, sample_temporal=True,
                                      eta=3, depth=2)
        memory = Tensor(rng.normal(size=(tiny_stream.num_nodes, 8)),
                        requires_grad=True)
        z = Tensor(rng.normal(size=(len(prepared.batch), 8)),
                   requires_grad=True)
        loss = contrast_loss_from_pairs(z, memory, prepared.temporal_pos,
                                        prepared.temporal_neg)
        assert loss.size == 1
        loss.backward()
        assert z.grad is not None

    def test_temporal_pairs_differ(self, tiny_stream):
        prepared = produce_last_batch(tiny_stream, batch_size=20,
                                      sample_temporal=True, eta=2, depth=1,
                                      tau=0.05)
        positives, negatives = prepared.temporal_pos, prepared.temporal_neg
        assert len(positives) == len(negatives) == 20
        # At least one node should produce different positive vs negative
        # subgraphs given enough history and a sharp temperature.
        differs = any(set(p.tolist()) != set(n.tolist())
                      for p, n in zip(positives, negatives)
                      if len(p) and len(n))
        assert differs

    def test_structural_negative_is_other_node(self, tiny_stream):
        nodes = np.asarray(tiny_stream.src[:50], dtype=np.int64)
        others = draw_other_roots(nodes, tiny_stream.num_nodes,
                                  np.random.default_rng(0))
        assert others.shape == nodes.shape
        assert (others != nodes).all()
        assert ((others >= 0) & (others < tiny_stream.num_nodes)).all()
        # Two nodes: the only other root is forced.
        np.testing.assert_array_equal(
            draw_other_roots(np.array([0, 1, 1]), 2,
                             np.random.default_rng(0)), [1, 0, 0])

    def test_structural_loss_backward(self, tiny_stream, rng):
        prepared = produce_last_batch(tiny_stream, sample_structural=True,
                                      epsilon=3, depth=2)
        assert len(prepared.structural_pos) == len(prepared.batch)
        memory = Tensor(rng.normal(size=(tiny_stream.num_nodes, 8)),
                        requires_grad=True)
        z = Tensor(rng.normal(size=(len(prepared.batch), 8)),
                   requires_grad=True)
        loss = contrast_loss_from_pairs(z, memory, prepared.structural_pos,
                                        prepared.structural_neg)
        loss.backward()
        assert memory.grad is not None


class TestLinkPredictionHead:
    def test_score_shape(self, rng):
        head = LinkPredictionHead(8, rng)
        z = Tensor(rng.normal(size=(5, 8)))
        assert head.score(z, z).shape == (5,)

    def test_probability_in_unit_interval(self, rng):
        head = LinkPredictionHead(8, rng)
        z = Tensor(rng.normal(size=(5, 8)))
        probs = head.probability(z, z).data
        assert ((probs > 0) & (probs < 1)).all()

    def test_loss_decreases_under_training(self, rng):
        from repro.nn import Adam
        head = LinkPredictionHead(4, rng)
        z_src = Tensor(rng.normal(size=(32, 4)))
        z_dst = Tensor(z_src.data + 0.1 * rng.normal(size=(32, 4)))
        z_neg = Tensor(rng.normal(size=(32, 4)) * 3.0)
        opt = Adam(head.parameters(), lr=0.01)
        first = None
        for step in range(60):
            loss = head.loss(z_src, z_dst, z_neg)
            if step == 0:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first


class TestCheckpoints:
    def test_schedule_uniform_and_ends_at_final_step(self):
        schedule = CheckpointSchedule(total_steps=100, num_checkpoints=5)
        assert schedule.steps == [20, 40, 60, 80, 100]

    def test_schedule_caps_at_total_steps(self):
        schedule = CheckpointSchedule(total_steps=3, num_checkpoints=10)
        assert schedule.steps == [1, 2, 3]

    def test_schedule_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            CheckpointSchedule(0, 5)

    def test_checkpoints_store_copies(self):
        checkpoints = MemoryCheckpoints()
        state = np.zeros((2, 2))
        checkpoints.add(state)
        state[0, 0] = 5.0
        assert checkpoints[0][0, 0] == 0.0

    def test_frozen_snapshot_is_adopted_without_a_copy(self):
        from repro.dgnn.memory import Memory
        from repro.nn import Tensor
        memory = Memory(3, 2, dtype=np.float32)
        memory.write(np.array([1]), Tensor(np.ones((1, 2), dtype=np.float32)))
        memory.persist()
        snapshot = memory.checkpoint()
        checkpoints = MemoryCheckpoints(dtype=np.float32)
        checkpoints.add(snapshot)
        assert checkpoints[0] is snapshot
        # Later memory writes — in place or wholesale — do not reach it.
        memory.write(np.array([1]), Tensor(np.full((1, 2), 7.0)))
        memory.persist()
        memory.load(np.full((3, 2), 9.0))
        assert checkpoints[0][1].tolist() == [1.0, 1.0]
        with pytest.raises(ValueError):
            checkpoints[0][0, 0] = 5.0

    def test_add_copies_when_dtype_or_ownership_differs(self):
        from repro.dgnn.memory import Memory
        snapshot = Memory(2, 2, dtype=np.float32).checkpoint()
        widened = MemoryCheckpoints(dtype=np.float64)
        widened.add(snapshot)
        assert widened[0] is not snapshot and widened[0].dtype == np.float64
        backing = np.zeros((2, 2))
        view = backing[:]
        view.flags.writeable = False  # frozen view of a writeable buffer
        checkpoints = MemoryCheckpoints()
        checkpoints.add(view)
        backing[0, 0] = 3.0
        assert checkpoints[0][0, 0] == 0.0

    def test_truncate_keeps_suffix(self):
        checkpoints = MemoryCheckpoints()
        for v in range(5):
            checkpoints.add(np.full((1, 1), float(v)))
        tail = checkpoints.truncate(2)
        assert len(tail) == 2
        assert tail[0][0, 0] == 3.0
        assert tail[1][0, 0] == 4.0


class TestEIE:
    def make_checkpoints(self, rng, length=4, nodes=6, dim=5):
        checkpoints = MemoryCheckpoints()
        for _ in range(length):
            checkpoints.add(rng.normal(size=(nodes, dim)))
        return checkpoints

    @pytest.mark.parametrize("fuser", EIE_FUSERS)
    def test_fusers_output_shapes(self, fuser, rng):
        eie = EIEModule(self.make_checkpoints(rng), fuser, out_dim=3, rng=rng)
        z = Tensor(rng.normal(size=(4, 7)))
        out = eie(z, np.array([0, 1, 2, 3]))
        assert out.shape == (4, 10)

    def test_mean_fuser_matches_numpy(self, rng):
        checkpoints = self.make_checkpoints(rng)
        eie = EIEModule(checkpoints, "mean", out_dim=3, rng=rng)
        nodes = np.array([1, 4])
        fused = eie.fuse(nodes).data
        expected = np.mean([snap[nodes] for snap in checkpoints.as_list()],
                           axis=0)
        np.testing.assert_allclose(fused, expected)

    def test_gru_fuser_order_sensitive(self, rng):
        forward = MemoryCheckpoints()
        backward = MemoryCheckpoints()
        snaps = [rng.normal(size=(3, 4)) for _ in range(3)]
        for snap in snaps:
            forward.add(snap)
        for snap in reversed(snaps):
            backward.add(snap)
        seed_rng = np.random.default_rng(0)
        eie_f = EIEModule(forward, "gru", out_dim=2, rng=np.random.default_rng(0))
        eie_b = EIEModule(backward, "gru", out_dim=2, rng=np.random.default_rng(0))
        nodes = np.arange(3)
        assert np.abs(eie_f.fuse(nodes).data - eie_b.fuse(nodes).data).max() > 1e-9

    def test_rejects_unknown_fuser(self, rng):
        with pytest.raises(ValueError):
            EIEModule(self.make_checkpoints(rng), "transformer", 3, rng)

    def test_rejects_empty_checkpoints(self, rng):
        with pytest.raises(ValueError):
            EIEModule(MemoryCheckpoints(), "mean", 3, rng)

    def test_gradients_reach_fuser_params(self, rng):
        eie = EIEModule(self.make_checkpoints(rng), "attn", out_dim=3, rng=rng)
        z = Tensor(rng.normal(size=(2, 4)))
        out = eie(z, np.array([0, 1]))
        (out ** 2.0).sum().backward()
        assert all(p.grad is not None for p in eie.parameters())


class TestCPDGConfig:
    def test_validate_accepts_defaults(self):
        CPDGConfig().validate()

    def test_validate_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            CPDGConfig(beta=1.5).validate()

    def test_validate_rejects_bad_width(self):
        with pytest.raises(ValueError):
            CPDGConfig(eta=0).validate()

    def test_with_overrides_functional(self):
        base = CPDGConfig()
        changed = base.with_overrides(beta=0.9)
        assert changed.beta == 0.9
        assert base.beta == 0.5
