"""Message functions ``Msg(·)`` (paper Eq. 2, Table III).

A message for node *i* at time *t* is computed from the pre-event states of
both endpoints plus the encoded time gap (and edge features when present):

* :class:`IdentityMessage` — concatenation (JODIE, TGN rows of Table III);
* :class:`AttentionMessage` — DyRep's variant: the partner contribution is
  an attention readout over the partner's recent neighbourhood states.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.attention import TemporalAttention
from ..nn.autograd import Tensor
from ..nn.module import Module

__all__ = ["IdentityMessage", "AttentionMessage", "message_input_dim"]


def message_input_dim(memory_dim: int, time_dim: int, edge_dim: int) -> int:
    """Width of the raw message vector ``[s_i, s_j, φ(Δt), e]``."""
    return 2 * memory_dim + time_dim + edge_dim


class IdentityMessage(Module):
    """``m = s_i ∥ s_j ∥ φ(Δt) ∥ e`` — no parameters."""

    def __init__(self, memory_dim: int, time_dim: int, edge_dim: int):
        super().__init__()
        self.output_dim = message_input_dim(memory_dim, time_dim, edge_dim)

    def forward(self, self_state: Tensor, other_state: Tensor,
                time_enc: Tensor, edge_feat: Tensor | None) -> Tensor:
        parts = [self_state, other_state, time_enc]
        if edge_feat is not None:
            parts.append(edge_feat)
        return F.concatenate(parts, axis=-1)


class AttentionMessage(Module):
    """DyRep-style message: partner state attended over stored context.

    The raw payload carries the partner's state; here the partner term is
    re-weighted against the self state through a single-head attention
    (queries: self state; keys/values: partner state + time encoding),
    approximating DyRep's neighbourhood-attention messages without a second
    graph query at flush time.
    """

    def __init__(self, memory_dim: int, time_dim: int, edge_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.output_dim = message_input_dim(memory_dim, time_dim, edge_dim)
        self.attention = TemporalAttention(
            query_dim=memory_dim, key_dim=memory_dim + time_dim,
            out_dim=memory_dim, num_heads=1, rng=rng)

    def forward(self, self_state: Tensor, other_state: Tensor,
                time_enc: Tensor, edge_feat: Tensor | None) -> Tensor:
        keys = F.concatenate([other_state, time_enc], axis=-1)
        # One key per query: every run of the ragged batch has length 1.
        attended = self.attention(self_state, keys, np.arange(keys.shape[0]))
        parts = [self_state, attended, time_enc]
        if edge_feat is not None:
            parts.append(edge_feat)
        return F.concatenate(parts, axis=-1)
