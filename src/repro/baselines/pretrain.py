"""Pre-training loops for every baseline family (paper §V-B).

All baselines are pre-trained on the same stream as CPDG and then
fine-tuned through the shared downstream harness (full fine-tuning, as the
paper does for every baseline).  One loop (:func:`_pretrain`) runs every
objective; six entry points name the loss and its extra modules:

* :func:`pretrain_static_link_prediction` — GraphSAGE / GAT / GIN
  (task-supervised static, link prediction pretext);
* :func:`pretrain_dynamic_link_prediction` — DyRep / JODIE / TGN
  (task-supervised dynamic, temporal link prediction with memory);
* :func:`pretrain_dgi` / :func:`pretrain_gptgnn` — self-supervised static;
* :func:`pretrain_ddgcl` / :func:`pretrain_selfrgnn` — self-supervised
  dynamic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.pretext import LinkPredictionHead
from ..dgnn.encoder import embed_together
from ..graph.batching import chronological_batches
from ..graph.events import EventStream
from ..nn.optim import Adam, clip_grad_norm
from .ddgcl import DDGCLCritic, ddgcl_loss
from .dgi import DGIDiscriminator, dgi_loss
from .gptgnn import GPTGNNHeads, gptgnn_loss
from .selfrgnn import selfrgnn_loss

__all__ = ["BaselinePretrainConfig", "pretrain_static_link_prediction",
           "pretrain_dynamic_link_prediction", "pretrain_dgi",
           "pretrain_gptgnn", "pretrain_ddgcl", "pretrain_selfrgnn"]


@dataclass
class BaselinePretrainConfig:
    """Shared optimisation knobs for baseline pre-training."""

    epochs: int = 3
    batch_size: int = 200
    learning_rate: float = 1e-3
    grad_clip: float = 5.0
    seed: int = 0


def _pretrain(encoder, stream: EventStream, cfg: BaselinePretrainConfig,
              rng: np.random.Generator, modules: tuple, batch_loss
              ) -> list[float]:
    """The optimisation loop of every baseline: ``cfg.epochs``
    chronological passes of ``batch_loss(batch)`` → backward → clip →
    Adam step over the encoder's and ``modules``' parameters.

    The memory protocol runs for every encoder — each pass starts from a
    reset memory and every batch is registered after its step — and is a
    no-op for the static ones.
    """
    encoder.attach(stream)
    params = encoder.parameters()
    for module in modules:
        params = params + module.parameters()
    optimizer = Adam(params, lr=cfg.learning_rate)
    losses = []
    for _ in range(cfg.epochs):
        encoder.reset_memory()
        for batch in chronological_batches(stream, cfg.batch_size, rng):
            loss = batch_loss(batch)
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(params, cfg.grad_clip)
            optimizer.step()
            encoder.register_batch(batch)
            encoder.end_batch()
            losses.append(loss.item())
    return losses


def pretrain_link_prediction(encoder, stream: EventStream,
                             cfg: BaselinePretrainConfig) -> list[float]:
    """Link-prediction pre-training: the static GNNs, and — the memory
    walk restarting every epoch — the DyRep / JODIE / TGN baselines of
    paper §V-B (temporal link prediction with memory)."""
    rng = np.random.default_rng(cfg.seed)
    head = LinkPredictionHead(encoder.embed_dim, rng)

    def batch_loss(batch):
        z_src, z_dst, z_neg = embed_together(
            encoder.compute_embedding, batch.timestamps,
            batch.src, batch.dst, batch.neg_dst)
        return head.loss(z_src, z_dst, z_neg)

    return _pretrain(encoder, stream, cfg, rng, (head,), batch_loss)


# The registry's names for the two families that share the pretext.
pretrain_static_link_prediction = pretrain_link_prediction
pretrain_dynamic_link_prediction = pretrain_link_prediction


def pretrain_dgi(encoder, stream: EventStream,
                 cfg: BaselinePretrainConfig) -> list[float]:
    """DGI local-global mutual-information pre-training."""
    rng = np.random.default_rng(cfg.seed)
    discriminator = DGIDiscriminator(encoder.embed_dim, rng)

    def batch_loss(batch):
        nodes = np.concatenate([batch.src, batch.dst])
        ts = np.concatenate([batch.timestamps, batch.timestamps])
        return dgi_loss(encoder, discriminator, nodes, ts, rng)

    return _pretrain(encoder, stream, cfg, rng, (discriminator,), batch_loss)


def pretrain_gptgnn(encoder, stream: EventStream,
                    cfg: BaselinePretrainConfig) -> list[float]:
    """GPT-GNN generative pre-training (edge + attribute generation)."""
    rng = np.random.default_rng(cfg.seed)
    edge_dim = stream.edge_feats.shape[1] if stream.edge_feats is not None else 0
    heads = GPTGNNHeads(encoder.embed_dim, edge_dim, rng)
    return _pretrain(
        encoder, stream, cfg, rng, (heads,),
        lambda batch: gptgnn_loss(encoder, heads, batch, stream.edge_feats))


def pretrain_ddgcl(encoder, stream: EventStream,
                   cfg: BaselinePretrainConfig) -> list[float]:
    """DDGCL two-temporal-view contrastive pre-training."""
    rng = np.random.default_rng(cfg.seed)
    critic = DDGCLCritic(encoder.embed_dim, encoder.time_dim, rng)
    view_gap = max(stream.timespan * 0.05, 1e-3)
    return _pretrain(
        encoder, stream, cfg, rng, (critic,),
        lambda batch: ddgcl_loss(encoder, critic, batch.src,
                                 batch.timestamps, view_gap, rng))


def pretrain_selfrgnn(encoder, stream: EventStream,
                      cfg: BaselinePretrainConfig) -> list[float]:
    """SelfRGNN curvature-view self-contrast pre-training."""
    rng = np.random.default_rng(cfg.seed)
    time_shift = max(stream.timespan * 0.05, 1e-3)
    return _pretrain(
        encoder, stream, cfg, rng, (),
        lambda batch: selfrgnn_loss(encoder, batch.src, batch.timestamps,
                                    time_shift))
