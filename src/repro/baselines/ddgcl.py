"""DDGCL baseline (Tian et al., 2021; paper §V-B, Table I).

Self-supervised dynamic graph contrastive learning: contrast two *nearby
temporal views* of the same node identity with a time-dependent similarity
critic and a GAN-type (JSD) contrastive loss.  DDGCL models long-term
consistency but not short-term fluctuation (Table I row), and carries no
memory module — its encoder is a memory-less temporal attention tower over
learnable node features.
"""

from __future__ import annotations

import numpy as np

from ..dgnn.time_encoding import TimeEncoder
from ..nn import functional as F
from ..nn.attention import TemporalAttention
from ..nn.autograd import Tensor
from ..nn.layers import MLP
from ..nn.losses import jsd_mutual_information_loss
from ..nn.module import Module
from .static_base import StaticEncoderBase

__all__ = ["DDGCLEncoder", "DDGCLCritic", "ddgcl_loss"]


class DDGCLEncoder(StaticEncoderBase):
    """Memory-less temporal attention encoder (TGAT-style, no memory)."""

    def __init__(self, num_nodes: int, embed_dim: int, rng: np.random.Generator,
                 time_dim: int = 8, n_neighbors: int = 10):
        super().__init__(num_nodes, embed_dim, n_neighbors, n_layers=1, rng=rng)
        self.time_encoder = TimeEncoder(time_dim)
        self.time_dim = time_dim
        self.attention = TemporalAttention(
            query_dim=embed_dim + time_dim, key_dim=embed_dim + time_dim,
            out_dim=embed_dim, num_heads=1, rng=rng)

    def compute_embedding(self, nodes: np.ndarray, ts: np.ndarray) -> Tensor:
        if self._finder is None:
            raise RuntimeError("encoder not attached to a stream; call attach()")
        nodes = np.asarray(nodes, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        slots = self._finder.batch_most_recent(nodes, ts, self.n_neighbors)

        center = self.node_embedding(nodes)
        zero_enc = self.time_encoder(Tensor(np.zeros(len(nodes))))
        query = F.concatenate([center, zero_enc], axis=-1)

        neighbor_emb = self.node_embedding(slots.neighbors)
        delta_enc = self.time_encoder(Tensor(ts[slots.rows] - slots.times))
        keys = F.concatenate([neighbor_emb, delta_enc], axis=-1)
        return F.relu(self.attention(query, keys, slots.starts) + center)


class DDGCLCritic(Module):
    """Time-dependent similarity critic ``D(z1, z2, φ(Δt))``."""

    def __init__(self, embed_dim: int, time_dim: int, rng: np.random.Generator):
        super().__init__()
        self.time_encoder = TimeEncoder(time_dim)
        self.net = MLP([2 * embed_dim + time_dim, embed_dim, 1], rng)

    def forward(self, view1: Tensor, view2: Tensor, deltas: np.ndarray) -> Tensor:
        enc = self.time_encoder(Tensor(np.asarray(deltas, dtype=np.float64)))
        return self.net(F.concatenate([view1, view2, enc], axis=-1)).reshape(-1)


def ddgcl_loss(encoder: DDGCLEncoder, critic: DDGCLCritic,
               nodes: np.ndarray, ts: np.ndarray, view_gap: float,
               rng: np.random.Generator) -> Tensor:
    """JSD contrast of a node's view at ``t`` against its view at ``t - δ``
    (positive) and a permuted node's earlier view (negative)."""
    earlier = np.maximum(np.asarray(ts, dtype=np.float64) - view_gap, 0.0)
    view_now = encoder.compute_embedding(nodes, ts)
    view_past = encoder.compute_embedding(nodes, earlier)
    deltas = ts - earlier
    pos = critic(view_now, view_past, deltas)
    perm = rng.permutation(len(nodes))
    neg = critic(view_now, view_past[perm], deltas)
    return jsd_mutual_information_loss(pos, neg)
