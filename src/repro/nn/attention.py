"""Attention blocks.

Two users in this reproduction:

* :class:`TemporalAttention` — the multi-head dot-product attention that
  aggregates temporal neighbours in the TGN/DyRep embedding modules
  (paper Eq. 1 with attention ``f`` over the neighbour *set* ``N_i^t``).
* :class:`AdditiveAttention` — the lightweight scoring used by the EIE-attn
  checkpoint fuser (paper §IV-C / Table XI).
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .autograd import Tensor
from .layers import Linear
from .module import Module

__all__ = ["TemporalAttention", "AdditiveAttention"]


class TemporalAttention(Module):
    """Multi-head attention of a query node over its temporal neighbours.

    Padding-free: a query has as many keys as it has neighbours, so the
    keys of a batch are *ragged*.  ``query`` is ``(B, query_dim)``;
    ``keys`` is ``(S, key_dim)`` — the neighbour slots of all queries
    back to back, sorted by query row — and ``starts`` gives the first
    slot of each query's run (``(B,)``, starting at 0, strictly
    increasing: every query owns at least one slot; see
    :class:`~repro.graph.neighbor_finder.NeighborSlots` for how a
    query without history keeps one; ``forward`` checks the contract
    with :func:`~repro.nn.functional.segment_rows`).  K/V projections,
    scores and the softmax touch those ``S`` rows only; nothing is masked.
    """

    def __init__(self, query_dim: int, key_dim: int, out_dim: int,
                 num_heads: int, rng: np.random.Generator):
        super().__init__()
        if out_dim % num_heads != 0:
            raise ValueError("out_dim must be divisible by num_heads")
        self.num_heads = num_heads
        self.head_dim = out_dim // num_heads
        self.out_dim = out_dim
        self.q_proj = Linear(query_dim, out_dim, rng, bias=False)
        self.k_proj = Linear(key_dim, out_dim, rng, bias=False)
        self.v_proj = Linear(key_dim, out_dim, rng, bias=False)
        self.out_proj = Linear(out_dim, out_dim, rng)

    def forward(self, query: Tensor, keys: Tensor, starts: np.ndarray) -> Tensor:
        slots = keys.shape[0]
        h, d = self.num_heads, self.head_dim

        rows = F.segment_rows(starts, slots)      # checks ``starts``, once

        q = F.segment_repeat(self.q_proj(query), starts, slots, rows)  # (S, H*D)
        k = self.k_proj(keys)
        v = self.v_proj(keys)

        scores = (q * k).reshape(slots, h, d).sum(axis=-1) * (1.0 / np.sqrt(d))
        weights = F.segment_softmax(scores, starts, rows)         # (S, H)

        weighted = weights.reshape(slots, h, 1) * v.reshape(slots, h, d)
        attended = F.segment_sum(weighted.reshape(slots, h * d),
                                 starts, rows)                    # (B, H*D)
        return self.out_proj(attended)


class AdditiveAttention(Module):
    """Single-query additive attention over a short sequence.

    Scores ``score_l = v^T tanh(W x_l)`` over sequence items ``x_l`` of shape
    ``(L, batch, dim)`` and returns the softmax-weighted sum ``(batch, dim)``.
    This is the EIE-attn fuser over memory checkpoints.
    """

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.proj = Linear(dim, hidden, rng)
        self.score = Linear(hidden, 1, rng, bias=False)

    def forward(self, sequence: list[Tensor]) -> Tensor:
        scores = [self.score(F.tanh(self.proj(item))) for item in sequence]   # each (B, 1)
        stacked = F.stack(scores, axis=0)                                     # (L, B, 1)
        weights = F.softmax(stacked, axis=0)
        items = F.stack(sequence, axis=0)                                     # (L, B, D)
        return (weights * items).sum(axis=0)
