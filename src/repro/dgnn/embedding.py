"""Embedding modules — the ``f(·)`` of paper Eq. 1 / Table III.

Given the flushed :class:`~repro.dgnn.memory.Memory` (row gathers with
this batch's in-graph delta overlaid), an embedding module produces the
temporal embedding ``z_i^t`` for query nodes:

* :class:`IdentityEmbedding` — ``z = W s_i`` (DyRep);
* :class:`TimeProjectionEmbedding` — JODIE's projected embedding
  ``z = W ((1 + Δt·w) ⊙ s_i)``;
* :class:`TemporalAttentionEmbedding` — TGN/TGAT graph attention over the
  most recent temporal neighbours, recursively for ``n_layers`` hops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.neighbor_finder import NeighborFinder
from ..nn import functional as F
from ..nn.attention import TemporalAttention
from ..nn.autograd import Tensor
from ..nn.layers import Linear
from ..nn.module import Module
from ..nn.module import Parameter
from .time_encoding import TimeEncoder

__all__ = ["EmbeddingContext", "IdentityEmbedding", "TimeProjectionEmbedding",
           "TemporalAttentionEmbedding"]


@dataclass
class EmbeddingContext:
    """Everything an embedding module may consult for one batch.

    ``memory`` is the flushed :class:`~repro.dgnn.memory.Memory` — row
    gathers (``memory.gather(nodes)``) thread autograd through only the
    rows this batch updated; ``last_update`` raw per-node
    last-interaction times; ``finder`` the temporal adjacency of the
    *attached* stream; ``edge_feats`` the stream's edge feature matrix
    (or a lazy zero table, or None); ``time_encoder`` the shared φ(Δt)
    module.  ``reads``, when a list, collects the receptive field: an
    embedding module appends ``(rows, node_ids)`` for every node whose
    state it reads on behalf of request row ``rows[i]`` beyond that row's
    own node (:meth:`DGNNEncoder.receptive_field
    <repro.dgnn.encoder.DGNNEncoder.receptive_field>` pads them into an
    id matrix).
    """

    memory: "Memory"
    last_update: np.ndarray
    finder: NeighborFinder
    edge_feats: np.ndarray | None
    time_encoder: TimeEncoder
    reads: list | None = None


class IdentityEmbedding(Module):
    """DyRep: the memory state is the embedding (linearly projected)."""

    field_width = 1     # a row reads its own node's state only

    def __init__(self, memory_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.out_dim = out_dim
        self.proj = Linear(memory_dim, out_dim, rng)

    def forward(self, ctx: EmbeddingContext, nodes: np.ndarray, ts: np.ndarray) -> Tensor:
        states = ctx.memory.gather(nodes)
        return self.proj(states)


class TimeProjectionEmbedding(Module):
    """JODIE: project the state forward along the elapsed time.

    ``z_i(t) = W ((1 + Δt̂ · w) ⊙ s_i)`` where ``Δt̂`` is the elapsed time
    since node ``i``'s last interaction, scaled by ``delta_scale`` (set to
    the stream's mean inter-event gap by the encoder).
    """

    field_width = 1     # own state and own last-update clock

    def __init__(self, memory_dim: int, out_dim: int, rng: np.random.Generator,
                 delta_scale: float = 1.0):
        super().__init__()
        self.out_dim = out_dim
        self.delta_scale = delta_scale
        self.time_weight = Parameter(np.zeros(memory_dim))
        self.proj = Linear(memory_dim, out_dim, rng)

    def forward(self, ctx: EmbeddingContext, nodes: np.ndarray, ts: np.ndarray) -> Tensor:
        states = ctx.memory.gather(nodes)
        deltas = (np.asarray(ts, dtype=np.float64) - ctx.last_update[nodes]) / self.delta_scale
        factor = Tensor(deltas[:, None]) * self.time_weight + 1.0
        return self.proj(states * factor)


class TemporalAttentionEmbedding(Module):
    """TGN: multi-head attention over the most recent temporal neighbours.

    The layer-``l`` representation queries with the node's layer-``l-1``
    representation plus φ(0) and attends over neighbours' layer-``l-1``
    representations, their interaction-time encodings and edge features.
    A skip connection merges the attended vector with the node state.
    A node without history attends over one dummy slot (node 0's state,
    Δt = t, zero edge features); the merge layer still sees its true
    centre state.
    """

    def __init__(self, memory_dim: int, out_dim: int, time_dim: int, edge_dim: int,
                 num_heads: int, n_neighbors: int, n_layers: int,
                 rng: np.random.Generator):
        super().__init__()
        if n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        self.out_dim = out_dim
        self.n_neighbors = n_neighbors
        self.n_layers = n_layers
        dims = [memory_dim] + [out_dim] * n_layers
        self.attentions = [
            TemporalAttention(
                query_dim=dims[layer] + time_dim,
                key_dim=dims[layer] + time_dim + edge_dim,
                out_dim=out_dim, num_heads=num_heads, rng=rng)
            for layer in range(n_layers)
        ]
        self.merges = [Linear(out_dim + dims[layer], out_dim, rng)
                       for layer in range(n_layers)]
        # The node itself plus at most n_neighbors^l nodes l hops away.
        self.field_width = 1 + sum(n_neighbors ** hop
                                   for hop in range(1, n_layers + 1))

    def forward(self, ctx: EmbeddingContext, nodes: np.ndarray, ts: np.ndarray) -> Tensor:
        nodes = np.asarray(nodes, dtype=np.int64)
        root = None if ctx.reads is None else np.arange(len(nodes))
        return self._embed_layer(ctx, nodes, np.asarray(ts, dtype=np.float64),
                                 self.n_layers, root)

    def _embed_layer(self, ctx: EmbeddingContext, nodes: np.ndarray,
                     ts: np.ndarray, layer: int,
                     root: np.ndarray | None = None) -> Tensor:
        """``root[i]`` is the request row ``nodes[i]`` is embedded for
        (``None``: reads are not being collected for these nodes)."""
        if layer == 0:
            return ctx.memory.gather(nodes)

        # One batch query covers the whole layer's neighbourhood (paper
        # Eq. 1 set N_i^t, most-recent truncation), ragged: only the
        # slots that hold a neighbour are embedded and attended.
        slots = ctx.finder.batch_most_recent(nodes, ts, self.n_neighbors)
        slot_ts = ts[slots.rows]
        if root is not None:
            # Dummy slots included: a history-less row reads node 0.
            root = root[slots.rows]
            ctx.reads.append((root, slots.neighbors))

        # The centre's own recursion repeats this layer's query and then
        # reads a subset of what the neighbours' recursion reads, so only
        # the latter is collected.
        center = self._embed_layer(ctx, nodes, ts, layer - 1)
        neighbor_repr = self._embed_layer(ctx, slots.neighbors, slot_ts,
                                          layer - 1, root)

        # Time encodings: φ(0) for the query, φ(t - t_u) for the keys.
        zero_enc = ctx.time_encoder(Tensor(np.zeros(len(nodes))))
        delta_enc = ctx.time_encoder(Tensor(slot_ts - slots.times))

        key_parts = [neighbor_repr, delta_enc]
        if ctx.edge_feats is not None:
            feats = ctx.edge_feats[slots.event_ids]
            feats[slots.dummy] = 0.0
            key_parts.append(Tensor(feats))
        keys = F.concatenate(key_parts, axis=-1)
        query = F.concatenate([center, zero_enc], axis=-1)
        attended = self.attentions[layer - 1](query, keys, slots.starts)
        merged = self.merges[layer - 1](F.concatenate([attended, center], axis=-1))
        return F.relu(merged)
