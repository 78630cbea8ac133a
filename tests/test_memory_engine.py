"""Sparse-delta memory: equivalence, dtype and gradient tests.

The per-batch delta of :class:`~repro.dgnn.memory.Memory` must be
*bit-identical* to the full-matrix flush of the original TGN-style
implementation — kept here as the oracle :class:`DenseOracleMemory` —
across all three backbones: memory state, embeddings and parameter
gradients, including the empty-pending first batch and batches with
repeated nodes.  Plus unit coverage for :class:`SparseRowGrad`
accumulation, :class:`ZeroEdgeFeatures`, vectorized ``clip_grad_norm``
and the configurable dtype path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CPDGConfig, CPDGPreTrainer
from repro.dgnn import BACKBONES, Memory, ZeroEdgeFeatures, make_encoder
from repro.graph import chronological_batches
from repro.graph.events import EventStream
from repro.nn import (Adam, Parameter, SparseRowGrad, Tensor, clip_grad_norm,
                      default_dtype, get_default_dtype)
from repro.nn import functional as F


def synthetic_stream(num_nodes=40, events=240, seed=0, edge_feats=True,
                     repeated_nodes=False):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes // 2, events)
    dst = rng.integers(num_nodes // 2, num_nodes, events)
    if repeated_nodes:
        # Force many duplicate endpoints inside every batch.
        src[::3] = src[0]
        dst[::5] = dst[0]
    return EventStream(
        src=src, dst=dst,
        timestamps=np.sort(rng.uniform(0.0, 100.0, events)),
        num_nodes=num_nodes,
        edge_feats=(rng.normal(size=(events, 4)) if edge_feats else None),
    )


class DenseOracleMemory(Memory):
    """The oracle: one full-matrix copy per flush, differentiable
    full-table writes, a whole-matrix persist — O(num_nodes) per batch."""

    _dense = None       # the batch's in-graph (num_nodes, dim) matrix

    def _matrix(self):
        if self._dense is None:
            self._dense = Tensor(np.array(self._state, copy=True))
        return self._dense

    def gather(self, nodes):
        return F.embedding_lookup(self._matrix(),
                                  np.asarray(nodes, dtype=np.int64))

    def write(self, nodes, rows):
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(nodes):
            self._dense = F.scatter_rows(self._matrix(), nodes, rows)

    def rows(self, nodes):
        matrix = self._state if self._dense is None else self._dense.data
        return matrix[np.asarray(nodes, dtype=np.int64)]

    def discard(self):
        super().discard()
        self._dense = None

    def persist(self):
        if self._dense is not None:
            self._state = np.array(self._dense.data, dtype=self.dtype)
            self._written[:] = True
        self.discard()


def use_dense_oracle(encoder):
    """Swap the dense oracle in for ``encoder``'s (zero) memory."""
    memory = encoder.memory
    encoder._memory = DenseOracleMemory(memory.num_nodes, memory.dim,
                                        dtype=memory.dtype)
    return encoder


def build_pair(backbone, stream, **kwargs):
    """Identically initialised encoders: dense oracle / production view."""
    encoders = {}
    for engine in ("dense", "sparse"):
        rng = np.random.default_rng(7)
        enc = make_encoder(backbone, stream.num_nodes, rng, memory_dim=8,
                           embed_dim=8, time_dim=4, edge_dim=4, n_neighbors=3,
                           **kwargs)
        if engine == "dense":
            use_dense_oracle(enc)
        enc.attach(stream)
        enc.reset_memory()
        encoders[engine] = enc
    return encoders


class TestEngineEquivalence:
    """Sparse flush == dense flush, bitwise."""

    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("repeated_nodes", [False, True])
    def test_bit_identical_over_batches(self, backbone, repeated_nodes):
        stream = synthetic_stream(repeated_nodes=repeated_nodes)
        encoders = build_pair(backbone, stream)
        batches = list(chronological_batches(stream, 60,
                                             np.random.default_rng(1)))
        # Batch 0 exercises the empty-pending-messages path.
        for i, batch in enumerate(batches):
            outputs = {}
            for engine, enc in encoders.items():
                z = enc.compute_embedding(batch.src, batch.timestamps)
                enc.zero_grad()
                (z ** 2.0).sum().backward()
                outputs[engine] = (
                    z.data.copy(),
                    {name: (None if p.grad is None else p.grad.copy())
                     for name, p in enc.named_parameters()},
                )
                enc.register_batch(batch)
                enc.end_batch()
            z_dense, grads_dense = outputs["dense"]
            z_sparse, grads_sparse = outputs["sparse"]
            np.testing.assert_array_equal(z_dense, z_sparse,
                                          err_msg=f"embeddings, batch {i}")
            for name, grad in grads_dense.items():
                if grad is None:
                    assert grads_sparse[name] is None
                else:
                    np.testing.assert_array_equal(
                        grad, grads_sparse[name],
                        err_msg=f"grad {name}, batch {i}")
            np.testing.assert_array_equal(
                encoders["dense"].memory.state,
                encoders["sparse"].memory.state,
                err_msg=f"memory state, batch {i}")
            np.testing.assert_array_equal(
                encoders["dense"].memory.last_update,
                encoders["sparse"].memory.last_update)

    def test_flush_with_no_pending_messages_matches(self):
        stream = synthetic_stream()
        encoders = build_pair("tgn", stream)
        nodes = np.array([0, 3, 3, 21])
        for enc in encoders.values():
            assert enc.memory.pending() is None
        assert type(encoders["dense"].flush_messages()) is DenseOracleMemory
        assert type(encoders["sparse"].flush_messages()) is Memory
        rows = {engine: enc.flush_messages().gather(nodes).data
                for engine, enc in encoders.items()}
        np.testing.assert_array_equal(rows["dense"], rows["sparse"])

    def test_seeded_pretrain_loss_history_regression(self):
        """End-to-end Algorithm 1: the dense oracle and the production
        view must produce the same per-batch loss history and final
        memory."""
        stream = synthetic_stream(num_nodes=30, events=180)
        cfg = CPDGConfig(epochs=2, batch_size=60, memory_dim=8, embed_dim=8,
                         time_dim=4, edge_dim=4, n_neighbors=3, eta=3,
                         epsilon=3, num_checkpoints=2, dtype="float64",
                         seed=3)
        results = {}
        for engine in ("dense", "sparse"):
            trainer = CPDGPreTrainer.from_backbone("tgn", stream.num_nodes, cfg)
            if engine == "dense":
                use_dense_oracle(trainer.encoder)
            results[engine] = trainer.pretrain(stream)
        hist_dense = np.asarray(results["dense"].loss_history)
        hist_sparse = np.asarray(results["sparse"].loss_history)
        np.testing.assert_allclose(hist_dense, hist_sparse, rtol=0, atol=0)
        np.testing.assert_array_equal(results["dense"].memory_state,
                                      results["sparse"].memory_state)
        for key in results["dense"].encoder_state:
            np.testing.assert_array_equal(results["dense"].encoder_state[key],
                                          results["sparse"].encoder_state[key])


class TestMessageStagingOrder:
    def test_last_message_follows_event_order_across_roles(self):
        """A node that is dst of an early event and src of a later event
        must keep the *later* event's message under the "last" aggregator
        (regression: [all src | all dst] staging picked the dst role)."""
        stream = EventStream(
            src=np.array([1, 2, 3, 7]),
            dst=np.array([7, 4, 5, 6]),
            timestamps=np.array([10.0, 20.0, 30.0, 40.0]),
            num_nodes=8,
        )
        rng = np.random.default_rng(0)
        enc = make_encoder("tgn", stream.num_nodes, rng, memory_dim=4,
                           embed_dim=4, time_dim=2, edge_dim=0, n_neighbors=2)
        enc.attach(stream)
        batch = next(iter(chronological_batches(stream, 4,
                                                np.random.default_rng(0))))
        enc.register_batch(batch)
        staged = enc.memory.pending(pop=True)
        nodes, rows = staged.per_node()
        last_time = dict(zip(nodes.tolist(), staged.time[rows].tolist()))
        assert last_time[7] == 40.0  # src role of the later event wins
        assert last_time[1] == 10.0
        assert last_time[6] == 40.0
        # And every node's selected message is its chronologically last.
        for node, t in last_time.items():
            assert t == staged.time[staged.nodes == node].max()

    def test_reattach_keeps_staged_feature_rows(self):
        """Edge-feature rows are captured at register time, so attaching
        a different (shorter) stream with messages still pending must not
        read out-of-range event ids from the new feature table."""
        long_stream = synthetic_stream(num_nodes=20, events=60)
        short_stream = synthetic_stream(num_nodes=20, events=5, seed=1)
        rng = np.random.default_rng(0)
        enc = make_encoder("tgn", 20, rng, memory_dim=4, embed_dim=4,
                           time_dim=2, edge_dim=4, n_neighbors=2)
        enc.attach(long_stream)
        for batch in chronological_batches(long_stream, 30,
                                           np.random.default_rng(0)):
            enc.compute_embedding(batch.src, batch.timestamps)
            enc.register_batch(batch)
            enc.end_batch()
        # Messages from the last batch (event ids up to 59) still pending.
        staged_feat = enc.memory.pending().edge_feat
        np.testing.assert_array_equal(
            staged_feat[-1], long_stream.edge_feats[-1])
        enc.attach(short_stream)
        z = enc.compute_embedding(np.array([0, 1]), np.array([200.0, 200.0]))
        assert np.isfinite(z.data).all()

    def test_self_loop_keeps_dst_role_message(self):
        """src == dst in one event: the dst-role row is staged second,
        matching the legacy per-event push order."""
        stream = EventStream(src=np.array([3]), dst=np.array([3]),
                             timestamps=np.array([5.0]), num_nodes=4)
        rng = np.random.default_rng(0)
        enc = make_encoder("jodie", stream.num_nodes, rng, memory_dim=4,
                           embed_dim=4, time_dim=2, edge_dim=0, n_neighbors=2)
        enc.attach(stream)
        batch = next(iter(chronological_batches(stream, 1,
                                                np.random.default_rng(0))))
        enc.register_batch(batch)
        staged = enc.memory.pending(pop=True)
        _, rows = staged.per_node()
        assert rows[0] == 1  # second (dst) row of the interleaved pair


class TestFinetuneDtype:
    def test_downstream_stage_runs_at_config_dtype(self):
        from repro.core.pretrainer import CPDGPreTrainer
        from repro.tasks.finetune import FineTuneConfig, build_finetuned_encoder
        stream = synthetic_stream(num_nodes=20, events=120)
        cfg = CPDGConfig(epochs=1, batch_size=60, memory_dim=8, embed_dim=8,
                         time_dim=4, edge_dim=4, n_neighbors=3, eta=3,
                         epsilon=3, num_checkpoints=2, dtype="float32")
        result = CPDGPreTrainer.from_backbone(
            "tgn", stream.num_nodes, cfg).pretrain(stream)
        strategy = build_finetuned_encoder(
            "tgn", stream.num_nodes, cfg, result, "eie-gru", FineTuneConfig())
        assert strategy.dtype == np.float32
        for param in strategy.encoder.parameters():
            assert param.data.dtype == np.float32
        for param in strategy.eie.parameters():
            assert param.data.dtype == np.float32
        assert strategy.encoder.memory.state.dtype == np.float32


def persist_rows(mem, nodes, rows):
    """One batch that writes ``rows`` for ``nodes`` and persists them."""
    mem.write(np.asarray(nodes), Tensor(rows))
    mem.persist()


def stage(mem, nodes, t=1.0):
    """Queue one message per node of ``nodes``."""
    k = len(nodes)
    mem.stage(np.asarray(nodes), np.zeros((k, mem.dim)),
              np.zeros((k, mem.dim)), np.zeros(k), np.full(k, t),
              np.arange(k))


class TestSparseMemoryView:
    """One batch's delta on :class:`Memory`: ``write`` routes rows in,
    ``gather`` overlays them, ``persist`` stores them back."""

    def test_gather_overlays_delta_rows(self):
        mem = Memory(6, 3)
        mem.load(np.arange(18, dtype=float).reshape(6, 3))
        mem.write(np.array([4, 1]), Tensor(np.full((2, 3), -1.0)))
        out = mem.gather(np.array([0, 1, 4, 5, 1])).data
        np.testing.assert_array_equal(out[0], mem.state[0])
        np.testing.assert_array_equal(out[1], np.full(3, -1.0))
        np.testing.assert_array_equal(out[2], np.full(3, -1.0))
        np.testing.assert_array_equal(out[3], mem.state[5])
        np.testing.assert_array_equal(out[4], np.full(3, -1.0))
        np.testing.assert_array_equal(mem.rows(np.array([1, 5])),
                                      [[-1.0] * 3, mem.state[5]])

    def test_persist_writes_only_touched_rows(self):
        mem = Memory(5, 2)
        mem.write(np.array([2]), Tensor(np.ones((1, 2))))
        np.testing.assert_array_equal(mem.touched, [2])
        mem.persist()
        assert mem.state[2].sum() == 2.0
        assert mem.state.sum() == 2.0
        assert len(mem.touched) == 0

    def test_second_write_replaces_the_first(self):
        """The path a flush re-run after an aborted replay takes."""
        mem = Memory(6, 2)
        mem.write(np.array([1, 3]), Tensor(np.ones((2, 2))))
        mem.write(np.array([3, 5]), Tensor(np.full((2, 2), 2.0)))
        np.testing.assert_array_equal(mem.touched, [3, 5])
        out = mem.gather(np.array([1, 3, 5])).data
        np.testing.assert_array_equal(out, [[0, 0], [2, 2], [2, 2]])
        mem.persist()
        np.testing.assert_array_equal(mem.rows(np.array([1, 3, 5])),
                                      [[0, 0], [2, 2], [2, 2]])

    def test_delta_of_one_batch_is_not_a_hit_in_the_next(self):
        mem = Memory(6, 2)
        persist_rows(mem, [1, 3], np.array([[1.0, 1.0], [3.0, 3.0]]))
        rows = Tensor(np.full((1, 2), 5.0), requires_grad=True)
        mem.write(np.array([4]), rows)
        out = mem.gather(np.array([1, 3, 4]))
        np.testing.assert_array_equal(out.data, [[1, 1], [3, 3], [5, 5]])
        out.sum().backward()
        np.testing.assert_array_equal(rows.grad, [[1.0, 1.0]])
        np.testing.assert_array_equal(mem.rows(np.array([1, 3])),
                                      [[1, 1], [3, 3]])

    @pytest.mark.parametrize("drop", ["reset", "load"])
    def test_reset_and_load_mid_batch_drop_delta_and_staged(self, drop):
        mem = Memory(6, 2)
        stage(mem, [0, 2])
        mem.write(np.array([2]), Tensor(np.ones((1, 2))))
        if drop == "reset":
            mem.reset()
        else:
            mem.load(np.full((6, 2), 7.0), np.zeros(6))
        assert mem.pending() is None and len(mem.touched) == 0
        base = 0.0 if drop == "reset" else 7.0
        np.testing.assert_array_equal(mem.gather(np.array([2])).data,
                                      [[base, base]])
        mem.write(np.array([5]), Tensor(np.ones((1, 2))))
        mem.persist()
        np.testing.assert_array_equal(mem.rows(np.array([2, 5])),
                                      [[base, base], [1.0, 1.0]])

    def test_write_rejects_duplicate_nodes(self):
        mem = Memory(4, 2)
        with pytest.raises(ValueError):
            mem.write(np.array([1, 1]), Tensor(np.ones((2, 2))))
        assert len(mem.touched) == 0
        np.testing.assert_array_equal(mem.gather(np.array([1])).data,
                                      [[0.0, 0.0]])

    def test_empty_write_is_a_noop(self):
        mem = Memory(4, 2)
        mem.write(np.empty(0, dtype=np.int64), Tensor(np.empty((0, 2))))
        out = mem.gather(np.array([3])).data  # must not raise
        np.testing.assert_array_equal(out, [[0.0, 0.0]])
        mem.persist()
        assert mem.state.sum() == 0.0

    def test_gradients_flow_through_written_rows_only(self):
        mem = Memory(5, 2)
        rows = Tensor(np.ones((2, 2)), requires_grad=True)
        mem.write(np.array([0, 3]), rows)
        out = mem.gather(np.array([0, 1, 3, 3]))
        out.sum().backward()
        np.testing.assert_array_equal(rows.grad, [[1.0, 1.0], [2.0, 2.0]])

    @pytest.mark.parametrize("column,value,match", [
        ("nodes", np.array([0, 6]), "staged_nodes"),
        ("nodes", np.array([-1, 2]), "staged_nodes"),
        ("self_state", np.zeros((2, 3)), "staged_self_state"),
        ("other_state", np.zeros((1, 2)), "staged_other_state"),
        ("time", np.zeros(1), "staged_time"),
        ("edge_feat", np.zeros((3, 4)), "staged_edge_feat"),
    ])
    def test_stage_rejects_a_malformed_block(self, column, value, match):
        mem = Memory(6, 2)
        block = dict(nodes=np.array([0, 2]), self_state=np.zeros((2, 2)),
                     other_state=np.zeros((2, 2)), delta_t=np.zeros(2),
                     time=np.zeros(2), event_ids=np.arange(2))
        block[column] = value
        with pytest.raises(ValueError, match=match):
            mem.stage(**block)
        assert mem.pending() is None


class TestWrittenRows:
    """``reset``/``checkpoint`` work from the set of written rows; every
    way of writing the state must be seen by both."""

    @staticmethod
    def dense_reference(mem):
        return np.array(mem._state, copy=True)

    def test_checkpoint_after_row_writes_equals_state_and_is_frozen(self):
        mem = Memory(50, 3)
        persist_rows(mem, [7, 2, 41], np.arange(9.0).reshape(3, 3))
        persist_rows(mem, [2], np.full((1, 3), -1.0))
        snap = mem.checkpoint()
        np.testing.assert_array_equal(snap, self.dense_reference(mem))
        assert snap[2].tolist() == [-1.0] * 3 and snap.sum() == 21.0
        assert not snap.flags.writeable and snap.flags.owndata
        assert snap.dtype == mem.dtype
        persist_rows(mem, [7], np.zeros((1, 3)))
        assert snap[7].tolist() == [0.0, 1.0, 2.0]

    def test_mostly_written_memory_takes_the_plain_copy(self):
        mem = Memory(6, 2)
        persist_rows(mem, np.arange(5), np.ones((5, 2)))
        np.testing.assert_array_equal(mem.checkpoint(),
                                      self.dense_reference(mem))

    def test_write_through_state_raises_and_changes_nothing(self):
        mem = Memory(40, 2)
        persist_rows(mem, [1], np.ones((1, 2)))
        with pytest.raises(ValueError, match="read-only"):
            mem.state[30] = 5.0        # no write behind the store's back
        assert not mem._state[30].any() and mem._written.sum() == 1
        snap = mem.checkpoint()
        assert not snap[30].any() and snap[1].tolist() == [1, 1]
        mem.reset()
        assert not mem._state.any() and not mem._written.any()
        assert not mem.checkpoint().any()

    def test_full_persist_and_assignment_reach_checkpoint_and_reset(self):
        mem = Memory(40, 2)
        mem.load(np.full((40, 2), 3.0))
        assert mem.checkpoint().sum() == 240.0
        mem.reset()
        assert not mem.checkpoint().any()

    def test_reset_clears_exactly_the_written_rows_and_tracks_again(self):
        mem = Memory(40, 2)
        persist_rows(mem, [3, 9], np.ones((2, 2)))
        mem.touch(np.array([3]), np.array([4.0]))
        mem.reset()
        assert not mem._state.any() and not mem.last_update.any()
        persist_rows(mem, [9], np.full((1, 2), 2.0))
        snap = mem.checkpoint()
        assert snap.sum() == 4.0 and snap[9].tolist() == [2.0, 2.0]

    def test_store_past_the_huge_page_advice_size_behaves_the_same(self):
        """4 MB and up the matrices come from an anonymous mapping; what
        they hold, and who may adopt them, must not depend on that."""
        from repro.core import MemoryCheckpoints
        mem = Memory(70_000, 16, dtype=np.float32)
        assert mem._state.nbytes >= 1 << 22 and not mem._state.any()
        nodes = np.array([0, 69_999, 4_321])
        persist_rows(mem, nodes, np.full((3, 16), 2.0, dtype=np.float32))
        snap = mem.checkpoint()
        assert snap.dtype == np.float32 and not snap.flags.writeable
        assert snap.sum() == 96.0 and snap[nodes].min() == 2.0
        checkpoints = MemoryCheckpoints(dtype=np.float32)
        checkpoints.add(snap)
        assert checkpoints[0] is snap
        mem.reset()
        assert not mem._state.any() and snap.sum() == 96.0
        loaded = np.zeros((70_000, 16), dtype=np.float32)
        loaded[5] = 1.0
        mem.load(loaded)               # every row written: the full copy
        full = mem.checkpoint()
        assert full.sum() == 16.0 and full[5].min() == 1.0
        del mem, checkpoints, snap     # the arrays outlive their makers
        assert full.sum() == 16.0

    def test_rows_does_not_give_up_the_bookkeeping(self):
        mem = Memory(40, 2)
        persist_rows(mem, [5], np.ones((1, 2)))
        got = mem.rows(np.array([5, 6]))
        got[:] = 9.0                   # a copy: the store is untouched
        assert mem._written.sum() == 1
        assert mem.checkpoint().sum() == 2.0


class TestSparseRowGrad:
    def test_lookup_backward_stays_sparse_until_read(self):
        table = Tensor(np.arange(12, dtype=float).reshape(4, 3),
                       requires_grad=True)
        F.embedding_lookup(table, np.array([1, 1, 3])).sum().backward()
        assert isinstance(table.raw_grad, SparseRowGrad)
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)  # densifies
        assert isinstance(table.raw_grad, np.ndarray)

    def test_sparse_plus_sparse_then_dense(self):
        table = Tensor(np.zeros((4, 2)), requires_grad=True)
        a = F.embedding_lookup(table, np.array([0, 2]))
        b = F.embedding_lookup(table, np.array([2, 3]))
        (a.sum() + b.sum() + (table * 2.0).sum()).backward()
        expected = np.full((4, 2), 2.0)
        expected[0] += 1.0
        expected[2] += 2.0
        expected[3] += 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_coalesce_merges_duplicates(self):
        grad = SparseRowGrad((4, 2), np.array([2, 0, 2]),
                             np.ones((3, 2)))
        coalesced = grad.coalesce()
        assert len(coalesced.indices) == 2
        np.testing.assert_array_equal(coalesced.to_dense(), grad.to_dense())

    def test_multidim_indices(self):
        table = Tensor(np.zeros((5, 2)), requires_grad=True)
        idx = np.array([[0, 1], [1, 4]])
        F.embedding_lookup(table, idx).sum().backward()
        expected = np.zeros((5, 2))
        np.add.at(expected, idx.reshape(-1), np.ones((4, 2)))
        np.testing.assert_array_equal(table.grad, expected)


class TestZeroEdgeFeatures:
    def test_attach_without_edge_feats_is_lazy(self):
        stream = synthetic_stream(edge_feats=False)
        rng = np.random.default_rng(0)
        enc = make_encoder("tgn", stream.num_nodes, rng, memory_dim=8,
                           embed_dim=8, time_dim=4, edge_dim=4, n_neighbors=3)
        enc.attach(stream)
        assert isinstance(enc._edge_feats, ZeroEdgeFeatures)
        z = enc.compute_embedding(np.array([0, 1]), np.array([50.0, 50.0]))
        assert z.shape == (2, 8)

    def test_rows_are_zero_and_writable(self):
        feats = ZeroEdgeFeatures(3)
        rows = feats[np.array([5, 9])]
        assert rows.shape == (2, 3)
        rows[0] = 1.0  # embedding path masks rows in place
        assert feats[np.array([5])].sum() == 0.0
        assert feats[7].shape == (3,)

    def test_engines_agree_without_edge_feats(self):
        stream = synthetic_stream(edge_feats=False)
        encoders = build_pair("tgn", stream)
        for batch in list(chronological_batches(
                stream, 60, np.random.default_rng(1)))[:3]:
            zs = {}
            for engine, enc in encoders.items():
                zs[engine] = enc.compute_embedding(batch.src,
                                                   batch.timestamps).data
                enc.register_batch(batch)
                enc.end_batch()
            np.testing.assert_array_equal(zs["dense"], zs["sparse"])


class TestClipGradNorm:
    def test_matches_per_parameter_reference(self):
        rng = np.random.default_rng(0)
        params = [Parameter(rng.normal(size=s)) for s in ((3, 4), (5,), (2, 2))]
        grads = [rng.normal(size=p.shape) for p in params]
        expected_norm = float(np.sqrt(sum((g ** 2).sum() for g in grads)))
        for p, g in zip(params, grads):
            p.grad = g.copy()
        norm = clip_grad_norm(params, 1.0)
        assert norm == pytest.approx(expected_norm)
        clipped = np.sqrt(sum((p.grad ** 2).sum() for p in params))
        assert clipped == pytest.approx(1.0)

    def test_no_grads_returns_zero(self):
        assert clip_grad_norm([Parameter(np.ones(3))], 1.0) == 0.0

    def test_below_threshold_untouched(self):
        p = Parameter(np.ones(2))
        p.grad = np.array([0.3, 0.4])
        norm = clip_grad_norm([p], 1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])

    def test_handles_sparse_grads(self):
        p = Parameter(np.zeros((4, 2)))
        F.embedding_lookup(p, np.array([1, 1])).sum().backward()
        norm = clip_grad_norm([p], 1.0)
        assert norm == pytest.approx(np.sqrt(8.0))  # row 1 accumulates [2, 2]


class TestDtype:
    def test_default_dtype_context(self):
        assert get_default_dtype() == np.float64
        with default_dtype(np.float32):
            assert Tensor(np.zeros(2)).data.dtype == np.float32
            with default_dtype(np.float64):
                assert Tensor(np.zeros(2)).data.dtype == np.float64
            assert get_default_dtype() == np.float32
        assert get_default_dtype() == np.float64

    def test_non_float_default_rejected(self):
        with pytest.raises(ValueError):
            with default_dtype(np.int64):
                pass

    def test_float32_pretrain_end_to_end(self):
        stream = synthetic_stream(num_nodes=20, events=120)
        cfg = CPDGConfig(epochs=1, batch_size=60, memory_dim=8, embed_dim=8,
                         time_dim=4, edge_dim=4, n_neighbors=3, eta=3,
                         epsilon=3, num_checkpoints=2, dtype="float32")
        trainer = CPDGPreTrainer.from_backbone("tgn", stream.num_nodes, cfg)
        assert trainer.encoder.memory.state.dtype == np.float32
        for param in trainer.encoder.parameters():
            assert param.data.dtype == np.float32
        result = trainer.pretrain(stream)
        assert result.memory_state.dtype == np.float32
        assert result.checkpoints[0].dtype == np.float32
        assert np.isfinite(np.asarray(result.loss_history)).all()

    def test_float32_artifact_roundtrip(self, tmp_path):
        from repro.api import Pipeline, RunConfig
        config = RunConfig.from_dict({
            "backbone": "tgn",
            "pretrain": {"epochs": 1, "batch_size": 80, "memory_dim": 8,
                         "embed_dim": 8, "time_dim": 4, "edge_dim": 4,
                         "n_neighbors": 3, "eta": 3, "epsilon": 3,
                         "num_checkpoints": 2, "dtype": "float32"},
            "data": {"dataset": "meituan", "num_users": 12, "num_items": 8,
                     "events_main": 200},
        })
        path = tmp_path / "artifact.npz"
        Pipeline(config).pretrain().save(str(path))
        from repro.api.artifact import PretrainArtifact
        loaded = PretrainArtifact.load(str(path))
        assert loaded.result.memory_state.dtype == np.float32
        assert loaded.describe()["memory_dtype"] == "float32"
        assert loaded.run_config.pretrain.dtype == "float32"

    def test_config_rejects_unknown_dtype_and_engine(self):
        with pytest.raises(ValueError):
            CPDGConfig(dtype="float16").validate()
        with pytest.raises(TypeError):      # no engine left to select
            CPDGConfig(memory_engine="mmap")

    def test_memory_persist_preserves_dtype(self):
        mem = Memory(3, 2, dtype=np.float32)
        mem.load(np.ones((3, 2), dtype=np.float64))
        assert mem.state.dtype == np.float32
        persist_rows(mem, [1], np.full((1, 2), 2.0))
        assert mem.state.dtype == np.float32
