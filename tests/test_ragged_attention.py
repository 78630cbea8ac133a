"""Padding-free temporal attention against an independent padded oracle.

The encoder used to pad every query to ``n_neighbors`` key slots and hide
the padding behind a ``-1e9`` softmax bias.  That masked attention — and
the padded embedding layer around it — live on *here*, as the reference
the ragged implementation is compared with: same parameters, same
neighbour queries, none of the segment primitives.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import GraphSAGEEncoder
from repro.core import CPDGConfig, CPDGPreTrainer
from repro.core.pretext import LinkPredictionHead
from repro.dgnn import embed_together, make_encoder
from repro.graph import EventStream, NeighborFinder, chronological_batches
from repro.graph.neighbor_finder import most_recent_slots
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.attention import TemporalAttention
from repro.nn.autograd import default_dtype
from repro.nn.gradcheck import check_gradients

TOLERANCE = {"float64": 1e-12, "float32": 1e-6}


# ----------------------------------------------------------------------
# the oracle: yesterday's padded, masked implementation
# ----------------------------------------------------------------------
def padded_attention(att: TemporalAttention, query: Tensor, keys: Tensor,
                     mask: np.ndarray) -> Tensor:
    """Masked multi-head attention over ``(B, N, key_dim)`` padded keys;
    ``mask`` is True on padded slots."""
    batch, n = keys.shape[0], keys.shape[1]
    h, d = att.num_heads, att.head_dim
    q = att.q_proj(query).reshape(batch, h, 1, d)
    flat = keys.reshape(batch * n, -1)
    k = att.k_proj(flat).reshape(batch, n, h, d).transpose(0, 2, 1, 3)
    v = att.v_proj(flat).reshape(batch, n, h, d).transpose(0, 2, 1, 3)
    scores = (q * k).sum(axis=-1) * (1.0 / np.sqrt(d))
    scores = scores + Tensor(np.where(mask[:, None, :], -1e9, 0.0))
    weights = F.softmax(scores, axis=-1)
    attended = (weights.reshape(batch, h, n, 1) * v).sum(axis=2)
    return att.out_proj(attended.reshape(batch, h * d))


def padded_embedding(encoder, nodes: np.ndarray, ts: np.ndarray) -> Tensor:
    """The padded one-layer TGN embedding: every query gathers, encodes
    and projects ``n_neighbors`` slots; a row without history un-masks
    slot 0."""
    module = encoder.embedding_module
    n = module.n_neighbors
    memory = encoder.flush_messages()
    neighbors, times, events, mask = encoder._finder.batch_most_recent(
        nodes, ts, n)
    center = memory.gather(nodes)
    neighbor_repr = memory.gather(neighbors.reshape(-1))
    zero_enc = encoder.time_encoder(Tensor(np.zeros(len(nodes))))
    delta_enc = encoder.time_encoder(
        Tensor(np.repeat(ts, n) - times.reshape(-1)))
    parts = [neighbor_repr, delta_enc]
    if encoder._edge_feats is not None:
        feats = encoder._edge_feats[events.reshape(-1)]
        feats[mask.reshape(-1)] = 0.0
        parts.append(Tensor(feats))
    keys = F.concatenate(parts, axis=-1)
    keys = keys.reshape(len(nodes), n, keys.shape[-1])
    query = F.concatenate([center, zero_enc], axis=-1)
    mask = mask.copy()
    mask[mask.all(axis=1), 0] = False
    attended = padded_attention(module.attentions[0], query, keys, mask)
    merged = module.merges[0](F.concatenate([attended, center], axis=-1))
    return F.relu(merged)


def ragged_from_padded(keys: np.ndarray, mask: np.ndarray):
    """Flatten the unmasked slots of padded keys row by row."""
    keep = ~mask
    per_row = keep.sum(axis=1)
    return keys[keep], np.cumsum(per_row) - per_row


def random_mask(rng, batch: int, n: int) -> np.ndarray:
    """Left-padded masks with the edge cases pinned: a full row, a row
    with one valid slot, and an all-padded row with slot 0 un-masked."""
    valid = rng.integers(1, n + 1, size=batch)
    valid[:3] = (n, 1, 1)
    mask = np.arange(n)[None, :] < (n - valid)[:, None]
    mask[2] = True
    mask[2, 0] = False
    return mask


# ----------------------------------------------------------------------
# attention module
# ----------------------------------------------------------------------
class TestRaggedAgainstPadded:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("edge_dim", [0, 4])
    @pytest.mark.parametrize("num_heads", [1, 2])
    def test_forward_and_gradients(self, dtype, edge_dim, num_heads):
        rng = np.random.default_rng(3)
        batch, n, key_dim = 9, 5, 6 + edge_dim
        mask = random_mask(rng, batch, n)
        with default_dtype(dtype):
            att = TemporalAttention(7, key_dim, 8, num_heads, rng)
            query = Tensor(rng.normal(size=(batch, 7)), requires_grad=True)
            keys = rng.normal(size=(batch, n, key_dim))
            probe = Tensor(rng.normal(size=(batch, 8)))

            reference = padded_attention(att, query, Tensor(keys), mask)
            (reference * probe).sum().backward()
            expected = {name: p.grad.copy()
                        for name, p in att.named_parameters()}
            expected_query = query.grad.copy()
            att.zero_grad()
            query.zero_grad()

            flat, starts = ragged_from_padded(keys, mask)
            ragged = att(query, Tensor(flat), starts)
            (ragged * probe).sum().backward()

        tol = TOLERANCE[dtype]
        assert ragged.data.dtype == np.dtype(dtype)
        np.testing.assert_allclose(ragged.data, reference.data,
                                   atol=tol, rtol=tol)
        np.testing.assert_allclose(query.grad, expected_query,
                                   atol=10 * tol, rtol=10 * tol)
        for name, p in att.named_parameters():
            np.testing.assert_allclose(p.grad, expected[name],
                                       atol=10 * tol, rtol=10 * tol)

    def test_k_proj_sees_valid_slots_only(self, monkeypatch):
        """Cost: the rows entering the K projection are the slots that
        hold a neighbour plus one kept dummy per history-less row — not
        ``B * n_neighbors``."""
        stream, encoder = _memory_encoder("tgn", edge_dim=0, n_neighbors=6)
        nodes = np.arange(stream.num_nodes)
        ts = np.full(len(nodes), stream.timestamps[40])
        _, _, _, mask = encoder._finder.batch_most_recent(nodes, ts, 6)
        valid = int((~mask).sum())
        empty_rows = int(mask.all(axis=1).sum())
        assert empty_rows > 0 and valid < mask.size // 2

        seen = []
        k_proj = encoder.embedding_module.attentions[0].k_proj
        forward = k_proj.forward
        monkeypatch.setattr(k_proj, "forward",
                            lambda x: seen.append(x.shape[0]) or forward(x))
        encoder.compute_embedding(nodes, ts)
        assert seen == [valid + empty_rows]


# ----------------------------------------------------------------------
# embedding layer (slots, dummy slot, edge features)
# ----------------------------------------------------------------------
def _stream(edge_dim: int, seed: int = 5, events: int = 160,
            num_nodes: int = 60) -> EventStream:
    """Half the nodes never interact; a few interact often."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(events, edge_dim)) if edge_dim else None
    return EventStream(
        src=rng.zipf(1.6, events) % 15,
        dst=15 + rng.zipf(1.4, events) % 15,
        timestamps=np.sort(rng.uniform(0.0, 100.0, events)),
        num_nodes=num_nodes, edge_feats=feats, name="ragged-test")


def _memory_encoder(backbone: str, edge_dim: int, n_neighbors: int = 4,
                    dtype: str = "float64"):
    """An attached encoder whose memory holds non-trivial states."""
    stream = _stream(edge_dim)
    rng = np.random.default_rng(0)
    with default_dtype(dtype):
        encoder = make_encoder(backbone, stream.num_nodes, rng, memory_dim=8,
                               embed_dim=8, time_dim=4, edge_dim=edge_dim,
                               n_neighbors=n_neighbors, dtype=np.dtype(dtype))
    encoder.attach(stream)
    encoder.load_memory(rng.normal(size=(stream.num_nodes, 8))
                        .astype(dtype))
    return stream, encoder


class TestEmbeddingAgainstPadded:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("edge_dim", [0, 4])
    def test_tgn_layer_matches_padded_reference(self, dtype, edge_dim):
        stream, encoder = _memory_encoder("tgn", edge_dim, dtype=dtype)
        nodes = np.arange(stream.num_nodes)
        # Early, mid-stream and late queries: empty, partial, full rows.
        for t in (0.0, stream.timestamps[30], stream.t_max + 1.0):
            ts = np.full(len(nodes), t)
            with default_dtype(dtype):
                ragged = encoder.compute_embedding(nodes, ts)
                reference = padded_embedding(encoder, nodes, ts)
            tol = TOLERANCE[dtype]
            np.testing.assert_allclose(ragged.data, reference.data,
                                       atol=tol, rtol=tol)

    def test_slots_are_the_unmasked_padded_entries(self):
        stream = _stream(0)
        finder = NeighborFinder(stream)
        nodes = np.arange(stream.num_nodes)
        ts = np.full(len(nodes), stream.timestamps[80])
        neighbors, times, events, mask = finder.batch_most_recent(nodes, ts, 4)
        slots = most_recent_slots(finder, nodes, ts, 4)

        per_row = np.diff(slots.starts, append=len(slots.rows))
        assert per_row.min() >= 1 and slots.starts[0] == 0
        np.testing.assert_array_equal(
            slots.rows, np.repeat(np.arange(len(nodes)), per_row))
        empty = mask.all(axis=1)
        np.testing.assert_array_equal(per_row,
                                      np.where(empty, 1, (~mask).sum(axis=1)))
        # History-less rows keep exactly their padded slot 0, flagged.
        np.testing.assert_array_equal(slots.dummy,
                                      empty[slots.rows])
        np.testing.assert_array_equal(slots.neighbors[~slots.dummy],
                                      neighbors[~mask])
        np.testing.assert_array_equal(slots.times[~slots.dummy], times[~mask])
        np.testing.assert_array_equal(slots.event_ids[~slots.dummy],
                                      events[~mask])
        assert (slots.neighbors[slots.dummy] == 0).all()
        assert (slots.times[slots.dummy] == 0.0).all()


# ----------------------------------------------------------------------
# the primitives
# ----------------------------------------------------------------------
STARTS = np.array([0, 3, 4, 6])     # runs of 3, 1, 2 and 4 slots
SLOTS = 10


class TestSegmentPrimitives:
    def test_values_match_per_run_numpy(self, rng):
        x = rng.normal(size=(SLOTS, 2))
        runs = np.split(x, STARTS[1:])
        np.testing.assert_allclose(
            F.segment_sum(Tensor(x), STARTS).data,
            np.stack([run.sum(axis=0) for run in runs]), atol=1e-12)
        soft = F.segment_softmax(Tensor(x), STARTS).data
        for lo, run in zip(STARTS, runs):
            e = np.exp(run - run.max(axis=0))
            np.testing.assert_allclose(soft[lo:lo + len(run)],
                                       e / e.sum(axis=0), atol=1e-12)
        rows = rng.normal(size=(len(STARTS), 3))
        np.testing.assert_array_equal(
            F.segment_repeat(Tensor(rows), STARTS, SLOTS).data,
            np.repeat(rows, [3, 1, 2, 4], axis=0))

    def test_softmax_survives_large_scores(self):
        x = Tensor(np.array([[1e4], [1e4 - 1.0], [-1e4]]))
        out = F.segment_softmax(x, np.array([0, 2])).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[2], 1.0)
        np.testing.assert_allclose(out[:2].sum(), 1.0)

    @pytest.mark.parametrize("starts", [
        [0, 1, 1],      # an empty run: reduceat would read its neighbour
        [1, 2],         # does not begin at slot 0
        [0, 2, 1],      # not sorted
        [0, 1, 3],      # last run starts at the slot total
        [],             # no run for three slots
    ])
    def test_bad_starts_are_rejected(self, starts):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        starts = np.array(starts, dtype=np.int64)
        with pytest.raises(ValueError, match="segment starts"):
            F.segment_sum(x, starts)
        with pytest.raises(ValueError, match="segment starts"):
            F.segment_softmax(x, starts)
        with pytest.raises(ValueError, match="segment starts"):
            F.segment_repeat(Tensor(np.ones((len(starts), 2))), starts, 3)

    def test_shared_row_index_gives_the_same_values(self, rng):
        x = Tensor(rng.normal(size=(SLOTS, 2)))
        rows = F.segment_rows(STARTS, SLOTS)
        np.testing.assert_array_equal(rows, [0, 0, 0, 1, 2, 2, 3, 3, 3, 3])
        np.testing.assert_array_equal(
            F.segment_softmax(x, STARTS, rows).data,
            F.segment_softmax(x, STARTS).data)
        np.testing.assert_array_equal(F.segment_sum(x, STARTS, rows).data,
                                      F.segment_sum(x, STARTS).data)
        assert F.segment_rows(np.array([], dtype=np.int64), 0).shape == (0,)

    def test_segment_softmax_gradient(self, rng):
        x = Tensor(rng.normal(size=(SLOTS, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(SLOTS, 2)))
        check_gradients(
            lambda: (F.segment_softmax(x, STARTS) * w).sum(), [x])

    def test_segment_sum_gradient(self, rng):
        x = Tensor(rng.normal(size=(SLOTS, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(len(STARTS), 3)))
        check_gradients(
            lambda: (F.segment_sum(x, STARTS) ** 2.0 * w).sum(), [x])

    def test_segment_repeat_gradient(self, rng):
        x = Tensor(rng.normal(size=(len(STARTS), 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(SLOTS, 3)))
        check_gradients(
            lambda: (F.segment_repeat(x, STARTS, SLOTS) ** 2.0 * w).sum(),
            [x])

    def test_split_rows_gradient_and_unused_block(self, rng):
        x = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3)))

        def loss():
            a, _unused, c = F.split_rows(x, [2, 3, 2])
            return ((a * c) ** 2.0 * w).sum()

        check_gradients(loss, [x])
        assert (x.grad[2:5] == 0.0).all()
        with pytest.raises(ValueError):
            F.split_rows(x, [2, 2])

    @pytest.mark.parametrize("pool", [F.scatter_mean, F.scatter_sum])
    def test_sorted_scatter_matches_general_scatter(self, pool, rng):
        """Sorted groups take the ``reduceat`` path; a permutation of the
        same rows takes ``np.add.at``.  Groups 1 and 4 are empty."""
        groups = np.array([0, 0, 2, 3, 3, 3, 5])
        values = rng.normal(size=(len(groups), 4))
        perm = rng.permutation(len(groups))
        w = Tensor(rng.normal(size=(6, 4)))
        x = Tensor(values, requires_grad=True)
        pooled = pool(x, groups, 6)
        shuffled = pool(Tensor(values[perm]), groups[perm], 6)
        np.testing.assert_allclose(pooled.data, shuffled.data, atol=1e-12)
        assert (pooled.data[[1, 4]] == 0.0).all()
        check_gradients(lambda: (pool(x, groups, 6) * w).sum(), [x])


# ----------------------------------------------------------------------
# one encoder pass == three
# ----------------------------------------------------------------------
def _three_pass(encoder, batch):
    return [encoder.compute_embedding(nodes, batch.timestamps)
            for nodes in (batch.src, batch.dst, batch.neg_dst)]


def _one_pass(encoder, batch):
    return embed_together(encoder.compute_embedding, batch.timestamps,
                          batch.src, batch.dst, batch.neg_dst)


def _build(kind: str, stream: EventStream):
    rng = np.random.default_rng(1)
    if kind == "graphsage":
        return GraphSAGEEncoder(stream.num_nodes, 8, rng, n_neighbors=4)
    # "tgn-2hop": two attention layers, so the second hop's neighbours
    # are embedded through the ragged attention too.
    backbone, _, hops = kind.partition("-")
    return make_encoder(backbone, stream.num_nodes, rng, memory_dim=8,
                        embed_dim=8, time_dim=4, edge_dim=3, n_neighbors=4,
                        n_layers=2 if hops == "2hop" else 1)


class TestOnePassEqualsThree:
    @pytest.mark.parametrize("kind", ["tgn", "jodie", "dyrep", "tgn-2hop",
                                      "graphsage"])
    def test_rows_and_parameter_gradients(self, kind):
        stream = _stream(edge_dim=3)
        encoder = _build(kind, stream)
        head = LinkPredictionHead(8, np.random.default_rng(2))
        encoder.attach(stream)
        params = encoder.parameters() + head.parameters()
        batches = list(chronological_batches(stream, 50,
                                             np.random.default_rng(4)))

        outcomes = []
        for embed in (_three_pass, _one_pass):
            encoder.reset_memory()
            grads = None
            for batch in batches[:3]:       # batch 2+ flushes real messages
                for p in params:
                    p.zero_grad()
                z = embed(encoder, batch)
                head.loss(*z).backward()
                grads = [None if p.grad is None else p.grad.copy()
                         for p in params]
                rows = [block.data.copy() for block in z]
                encoder.register_batch(batch)
                encoder.end_batch()
            outcomes.append((rows, grads))

        (rows_3, grads_3), (rows_1, grads_1) = outcomes
        for three, one in zip(rows_3, rows_1):
            np.testing.assert_allclose(one, three, atol=1e-12, rtol=1e-12)
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads_3)
        for three, one in zip(grads_3, grads_1):
            assert (three is None) == (one is None)
            if three is not None:
                np.testing.assert_allclose(one, three, atol=1e-11,
                                           rtol=1e-10)


# ----------------------------------------------------------------------
# end to end: the seeded loss history of the padded implementation
# ----------------------------------------------------------------------
# ``CPDGPreTrainer`` (tgn, 2 epochs, the config below) on the ``tiny_stream``
# fixture at the last padded commit; the ragged one-pass encoder reproduces
# it to 0 (float64, 10 printed digits) / 1.2e-7 (float32).
PADDED_LOSS_HISTORY = {
    ("float64", 4): [
        [1.0, 1.0, 0.7370744282],
        [1.0166493221, 0.9770402996, 0.7218910479],
        [1.0387115539, 1.0310769358, 0.7050429712],
        [1.0277876385, 1.1522068242, 0.7104000654],
        [1.0, 1.0, 0.7229970065],
        [1.015615844, 0.9700493764, 0.7197879007],
        [1.0105888999, 1.0226160567, 0.7066257384],
        [1.0527472314, 1.0443275293, 0.7306490678]],
    ("float32", 0): [
        [1.0, 1.0, 0.6929783821],
        [0.9973237514, 1.0275671482, 0.6975247264],
        [0.9964547157, 1.090076685, 0.7056788206],
        [0.9443882704, 1.0572431087, 0.6980961561],
        [1.0, 1.0, 0.6918352842],
        [0.9936144352, 1.0246683359, 0.6962994933],
        [0.9943312407, 1.1023736, 0.7061856389],
        [0.9408557415, 1.2321665287, 0.68938905]],
}


@pytest.mark.parametrize("dtype,edge_dim", sorted(PADDED_LOSS_HISTORY))
@pytest.mark.parametrize("compile_step", [True, False])
def test_pretrain_loss_history_matches_padded_parent(tiny_stream, dtype,
                                                     edge_dim, compile_step):
    config = CPDGConfig(eta=3, epsilon=3, depth=1, epochs=2, batch_size=64,
                        memory_dim=8, embed_dim=8, time_dim=4, n_neighbors=3,
                        num_checkpoints=3, seed=0, dtype=dtype,
                        edge_dim=edge_dim, compile_step=compile_step)
    result = CPDGPreTrainer.from_backbone(
        "tgn", tiny_stream.num_nodes, config).pretrain(tiny_stream)
    np.testing.assert_allclose(np.asarray(result.loss_history),
                               PADDED_LOSS_HISTORY[(dtype, edge_dim)],
                               atol=1e-5, rtol=0)
