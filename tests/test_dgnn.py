"""Unit tests for the DGNN framework (memory, messages, encoders)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dgnn import (BACKBONES, AttentionMessage, GRUUpdater,
                        IdentityMessage, Memory, RNNUpdater, TimeEncoder,
                        make_encoder, make_updater)
from repro.graph import chronological_batches
from repro.nn import Tensor


class TestTimeEncoder:
    def test_output_shape(self):
        enc = TimeEncoder(8)
        out = enc(np.array([0.0, 1.0, 100.0]))
        assert out.shape == (3, 8)

    def test_zero_delta_is_cos_of_phase(self):
        enc = TimeEncoder(4)
        out = enc(np.array([0.0]))
        np.testing.assert_allclose(out.data, np.cos(enc.phase.data)[None, :])

    def test_distinguishes_scales(self):
        enc = TimeEncoder(16)
        short = enc(np.array([0.1])).data
        long = enc(np.array([500.0])).data
        assert np.abs(short - long).max() > 0.1

    def test_gradient_flows_to_frequencies(self):
        enc = TimeEncoder(4)
        out = enc(Tensor(np.array([1.0, 2.0])))
        (out ** 2.0).sum().backward()
        assert enc.omega.grad is not None


class TestMemory:
    def test_zero_initialisation(self):
        mem = Memory(5, 3)
        assert mem.state.sum() == 0.0
        assert mem.last_update.sum() == 0.0

    def test_persist_and_reset(self):
        mem = Memory(4, 2)
        mem.load(np.ones((4, 2)))
        assert mem.state.sum() == 8.0
        mem.reset()
        assert mem.state.sum() == 0.0

    def test_persist_shape_mismatch(self):
        with pytest.raises(ValueError, match="memory_state"):
            Memory(4, 2).load(np.ones((3, 2)))
        with pytest.raises(ValueError, match="last_update"):
            Memory(4, 2).load(np.ones((4, 2)), np.zeros(3))

    def test_touch_takes_maximum(self):
        mem = Memory(3, 2)
        mem.touch(np.array([0, 0]), np.array([5.0, 2.0]))
        assert mem.last_update[0] == 5.0

    def test_checkpoint_is_a_copy(self):
        mem = Memory(2, 2)
        snap = mem.checkpoint()
        mem.load(np.ones((2, 2)))
        assert snap.sum() == 0.0


class TestRawMessageStore:
    """The raw-message queue on :class:`Memory`: ``stage`` appends a
    block, ``pending`` reads the queue, ``pending(pop=True)`` empties it."""

    @staticmethod
    def _stage(memory, nodes, times):
        nodes = np.asarray(nodes, dtype=np.int64)
        k = len(nodes)
        memory.stage(nodes, np.zeros((k, 2)), np.ones((k, 2)),
                     np.zeros(k), np.asarray(times, dtype=np.float64),
                     np.arange(k))

    def test_last_per_node_selects_most_recent(self):
        memory = Memory(4, 2)
        self._stage(memory, [1], [1.0])
        self._stage(memory, [1], [2.0])
        staged = memory.pending(pop=True)
        nodes, rows = staged.per_node()
        np.testing.assert_array_equal(nodes, [1])
        assert staged.time[rows[0]] == 2.0

    def test_pop_clears(self):
        memory = Memory(4, 2)
        self._stage(memory, [0], [0.0])
        assert len(memory.pending().nodes) == 1
        assert len(memory.pending(pop=True).nodes) == 1
        assert memory.pending() is None
        assert memory.pending(pop=True) is None

    def test_empty_stage_is_ignored(self):
        memory = Memory(4, 2)
        self._stage(memory, [], [])
        assert memory.pending(pop=True) is None


class TestMessagesAndUpdaters:
    def test_identity_message_concatenates(self, rng):
        msg = IdentityMessage(4, 2, 3)
        out = msg(Tensor(np.ones((2, 4))), Tensor(np.zeros((2, 4))),
                  Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))
        assert out.shape == (2, 13)
        assert msg.output_dim == 13

    def test_attention_message_dims(self, rng):
        msg = AttentionMessage(4, 2, 3, rng)
        out = msg(Tensor(np.ones((2, 4))), Tensor(np.zeros((2, 4))),
                  Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))
        assert out.shape == (2, msg.output_dim)

    @pytest.mark.parametrize("name,cls", [("gru", GRUUpdater),
                                          ("rnn", RNNUpdater)])
    def test_make_updater(self, name, cls, rng):
        updater = make_updater(name, 6, 4, rng)
        assert isinstance(updater, cls)
        out = updater(Tensor(np.ones((2, 6))), Tensor(np.zeros((2, 4))))
        assert out.shape == (2, 4)

    def test_make_updater_unknown(self, rng):
        with pytest.raises(ValueError):
            make_updater("transformer", 4, 4, rng)

class TestEncoder:
    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_backbones_produce_embeddings(self, backbone, tiny_stream, rng):
        enc = make_encoder(backbone, tiny_stream.num_nodes, rng,
                           memory_dim=8, embed_dim=8, time_dim=4, edge_dim=4,
                           n_neighbors=3)
        enc.attach(tiny_stream)
        z = enc.compute_embedding(np.array([0, 1]), np.array([10.0, 10.0]))
        assert z.shape == (2, 8)

    def test_unknown_backbone(self, rng):
        with pytest.raises(ValueError):
            make_encoder("gpt", 10, rng)

    def test_embedding_requires_attach(self, rng):
        enc = make_encoder("tgn", 10, rng, memory_dim=4, embed_dim=4,
                           time_dim=2, edge_dim=0, n_neighbors=2)
        with pytest.raises(RuntimeError):
            enc.compute_embedding(np.array([0]), np.array([1.0]))

    def test_memory_updates_after_batches(self, tiny_stream, rng):
        enc = make_encoder("tgn", tiny_stream.num_nodes, rng, memory_dim=8,
                           embed_dim=8, time_dim=4, edge_dim=4, n_neighbors=3)
        enc.attach(tiny_stream)
        enc.reset_memory()
        batches = list(chronological_batches(tiny_stream, 50, rng))
        for batch in batches[:2]:
            enc.compute_embedding(batch.src, batch.timestamps)
            enc.register_batch(batch)
            enc.end_batch()
        # Flush once more so the second batch's messages land in memory.
        enc.flush_messages()
        enc.end_batch()
        touched = np.unique(np.concatenate([
            np.concatenate([b.src, b.dst]) for b in batches[:2]]))
        norms = np.abs(enc.memory.state).sum(axis=1)
        assert (norms[touched] > 0).all()
        untouched = np.setdiff1d(np.arange(tiny_stream.num_nodes), touched)
        if len(untouched):
            assert (norms[untouched] == 0).all()

    def test_deferred_messages_give_updater_gradients(self, tiny_stream, rng):
        enc = make_encoder("tgn", tiny_stream.num_nodes, rng, memory_dim=8,
                           embed_dim=8, time_dim=4, edge_dim=4, n_neighbors=3)
        enc.attach(tiny_stream)
        enc.reset_memory()
        batches = list(chronological_batches(tiny_stream, 50, rng))
        # Batch 0: no pending messages yet, updater unused.
        enc.compute_embedding(batches[0].src, batches[0].timestamps)
        enc.register_batch(batches[0])
        enc.end_batch()
        # Batch 1: pending messages flush inside this graph.
        z = enc.compute_embedding(batches[1].src, batches[1].timestamps)
        (z ** 2.0).sum().backward()
        gru = enc.updater.cell
        assert gru.w_xz.grad is not None
        assert np.abs(gru.w_xz.grad).sum() > 0

    def test_memory_snapshot_roundtrip(self, tiny_stream, rng):
        enc = make_encoder("jodie", tiny_stream.num_nodes, rng, memory_dim=8,
                           embed_dim=8, time_dim=4, edge_dim=4, n_neighbors=3)
        enc.attach(tiny_stream)
        for batch in chronological_batches(tiny_stream, 60, rng):
            enc.flush_messages()
            enc.register_batch(batch)
            enc.end_batch()
        enc.flush_messages()
        enc.end_batch()
        state, last_update = enc.memory_snapshot()
        enc.reset_memory()
        assert enc.memory.state.sum() == 0.0
        enc.load_memory(state, last_update)
        np.testing.assert_allclose(enc.memory.state, state)
        np.testing.assert_allclose(enc.memory.last_update, last_update)

    def test_jodie_projection_uses_elapsed_time(self, tiny_stream, rng):
        enc = make_encoder("jodie", tiny_stream.num_nodes, rng, memory_dim=8,
                           embed_dim=8, time_dim=4, edge_dim=4, n_neighbors=3)
        # Non-zero projection weights so elapsed time matters.
        enc.embedding_module.time_weight.data = np.full(8, 0.5)
        enc.attach(tiny_stream)
        for batch in chronological_batches(tiny_stream, 100, rng):
            enc.flush_messages()
            enc.register_batch(batch)
            enc.end_batch()
        enc.flush_messages()
        enc.end_batch()
        node = int(tiny_stream.src[0])
        z_soon = enc.compute_embedding(np.array([node]),
                                       np.array([tiny_stream.t_max + 1.0]))
        enc.end_batch()
        z_late = enc.compute_embedding(np.array([node]),
                                       np.array([tiny_stream.t_max + 50.0]))
        assert np.abs(z_soon.data - z_late.data).max() > 1e-8

    def test_state_dict_covers_all_components(self, rng):
        enc = make_encoder("tgn", 20, rng, memory_dim=8, embed_dim=8,
                           time_dim=4, edge_dim=4, n_neighbors=3)
        names = set(enc.state_dict())
        assert any("time_encoder" in n for n in names)
        assert any("updater" in n for n in names)
        assert any("embedding_module" in n for n in names)

    def test_table3_component_wiring(self, rng):
        """Paper Table III: each backbone uses its published components."""
        from repro.dgnn.embedding import (IdentityEmbedding,
                                          TemporalAttentionEmbedding,
                                          TimeProjectionEmbedding)
        jodie = make_encoder("jodie", 10, rng)
        dyrep = make_encoder("dyrep", 10, rng)
        tgn = make_encoder("tgn", 10, rng)
        assert isinstance(jodie.embedding_module, TimeProjectionEmbedding)
        assert isinstance(jodie.updater, RNNUpdater)
        assert isinstance(dyrep.embedding_module, IdentityEmbedding)
        assert isinstance(dyrep.message_fn, AttentionMessage)
        assert isinstance(tgn.embedding_module, TemporalAttentionEmbedding)
        assert isinstance(tgn.updater, GRUUpdater)
        assert isinstance(tgn.message_fn, IdentityMessage)
