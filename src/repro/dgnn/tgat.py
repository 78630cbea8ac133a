"""TGAT — memory-less temporal graph attention (Xu et al., ICLR 2020).

The predecessor of TGN (paper §II-A): node representations come purely
from recursive attention over temporal neighbourhoods with functional
time encoding; there is no memory module.  Provided as an additional
encoder for completeness — it satisfies the same encoder protocol as
:class:`~repro.dgnn.encoder.DGNNEncoder` (register/end-batch are no-ops),
so it runs through every downstream harness.
"""

from __future__ import annotations

import numpy as np

from ..graph.batching import EventBatch
from ..graph.events import EventStream
from ..graph.neighbor_finder import NeighborFinder, most_recent_slots
from ..nn import functional as F
from ..nn.attention import TemporalAttention
from ..nn.autograd import Tensor
from ..nn.layers import Embedding, Linear
from ..nn.module import Module
from .time_encoding import TimeEncoder

__all__ = ["TGATEncoder"]


class TGATEncoder(Module):
    """Multi-layer temporal graph attention over learnable node features."""

    def __init__(self, num_nodes: int, embed_dim: int, time_dim: int,
                 num_heads: int, n_neighbors: int, n_layers: int,
                 rng: np.random.Generator, edge_dim: int = 0):
        super().__init__()
        if n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        self.num_nodes = num_nodes
        self.embed_dim = embed_dim
        self.n_neighbors = n_neighbors
        self.n_layers = n_layers
        self.edge_dim = edge_dim
        self.node_features = Embedding(num_nodes, embed_dim, rng)
        self.time_encoder = TimeEncoder(time_dim)
        self.attentions = [
            TemporalAttention(query_dim=embed_dim + time_dim,
                              key_dim=embed_dim + time_dim + edge_dim,
                              out_dim=embed_dim, num_heads=num_heads, rng=rng)
            for _ in range(n_layers)
        ]
        self.merges = [Linear(2 * embed_dim, embed_dim, rng)
                       for _ in range(n_layers)]
        self._finder: NeighborFinder | None = None
        self._edge_feats: np.ndarray | None = None

    # ------------------------------------------------------------------
    # encoder protocol
    # ------------------------------------------------------------------
    def attach(self, stream: EventStream, finder: NeighborFinder | None = None) -> None:
        self._finder = finder if finder is not None else NeighborFinder(stream)
        if self.edge_dim and stream.edge_feats is not None:
            self._edge_feats = stream.edge_feats
        else:
            self._edge_feats = None

    def reset_memory(self) -> None:
        return None

    def memory_snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros((0, 0)), np.zeros(0)

    def load_memory(self, state: np.ndarray, last_update: np.ndarray | None = None) -> None:
        return None

    def memory_checkpoint(self) -> np.ndarray:
        return np.zeros((self.num_nodes, self.embed_dim))

    def flush_messages(self) -> None:
        return None

    def register_batch(self, batch: EventBatch) -> None:
        return None

    def end_batch(self) -> None:
        return None

    # ------------------------------------------------------------------
    # embedding
    # ------------------------------------------------------------------
    def compute_embedding(self, nodes: np.ndarray, ts: np.ndarray) -> Tensor:
        if self._finder is None:
            raise RuntimeError("encoder not attached to a stream; call attach()")
        return self._layer(np.asarray(nodes, dtype=np.int64),
                           np.asarray(ts, dtype=np.float64), self.n_layers)

    def _layer(self, nodes: np.ndarray, ts: np.ndarray, layer: int) -> Tensor:
        if layer == 0:
            return self.node_features(nodes)
        slots = most_recent_slots(self._finder, nodes, ts, self.n_neighbors)
        slot_ts = ts[slots.rows]
        center = self._layer(nodes, ts, layer - 1)
        neighbor_repr = self._layer(slots.neighbors, slot_ts, layer - 1)

        zero_enc = self.time_encoder(Tensor(np.zeros(len(nodes))))
        delta_enc = self.time_encoder(Tensor(slot_ts - slots.times))

        key_parts = [neighbor_repr, delta_enc]
        if self._edge_feats is not None:
            feats = self._edge_feats[slots.event_ids]
            feats[slots.dummy] = 0.0
            key_parts.append(Tensor(feats))
        keys = F.concatenate(key_parts, axis=-1)
        query = F.concatenate([center, zero_enc], axis=-1)
        attended = self.attentions[layer - 1](query, keys, slots.starts)
        merged = self.merges[layer - 1](F.concatenate([attended, center],
                                                      axis=-1))
        return F.relu(merged)
