"""GPT-GNN baseline (Hu et al., 2020; paper §V-B).

Generative pre-training with two heads over a static encoder:

* **edge generation** — score the true destination against corrupted ones
  (dot-product decoder, cross-entropy over candidates);
* **attribute generation** — reconstruct the event's edge features from
  the endpoint embeddings (MSE).

The paper observes GPT-GNN transfers poorly to dynamic graphs (§V-D,
"the static generative graph pre-training framework performs relatively
worse"); the reproduction keeps the method faithful rather than tuned.
"""

from __future__ import annotations

import numpy as np

from ..dgnn.encoder import embed_together
from ..nn import functional as F
from ..nn.autograd import Tensor
from ..nn.layers import MLP
from ..nn.losses import mse_loss
from ..nn.module import Module

__all__ = ["GPTGNNHeads", "gptgnn_loss"]


class GPTGNNHeads(Module):
    """Attribute-generation head (edge generation is parameter-free)."""

    def __init__(self, embed_dim: int, edge_feat_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.edge_feat_dim = edge_feat_dim
        if edge_feat_dim > 0:
            self.attr_net = MLP([2 * embed_dim, embed_dim, edge_feat_dim], rng)


def gptgnn_loss(encoder, heads: GPTGNNHeads, batch, edge_feats: np.ndarray | None,
                attr_weight: float = 0.5) -> Tensor:
    """Combined edge-generation + attribute-generation objective."""
    z_src, z_dst, z_neg = embed_together(
        encoder.compute_embedding, batch.timestamps,
        batch.src, batch.dst, batch.neg_dst)

    # Edge generation: softmax over {true dst, corrupted dst} per event.
    pos_logit = (z_src * z_dst).sum(axis=-1, keepdims=True)
    neg_logit = (z_src * z_neg).sum(axis=-1, keepdims=True)
    logits = F.concatenate([pos_logit, neg_logit], axis=1)
    loss = -F.log_softmax(logits, axis=1)[:, 0].mean()

    # Attribute generation on the observed edges.
    if heads.edge_feat_dim > 0 and edge_feats is not None:
        target = edge_feats[batch.event_ids]
        predicted = heads.attr_net(F.concatenate([z_src, z_dst], axis=-1))
        loss = loss + attr_weight * mse_loss(predicted, Tensor(target))
    return loss
