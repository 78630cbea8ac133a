"""Pre-training loops for every baseline family (paper §V-B).

All baselines are pre-trained on the same stream as CPDG and then
fine-tuned through the shared downstream harness (full fine-tuning, as the
paper does for every baseline).  Four loop shapes cover the zoo:

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


def _loop(stream: EventStream, cfg: BaselinePretrainConfig,
          rng: np.random.Generator):
    """Yield batches over ``cfg.epochs`` chronological passes."""
    for epoch in range(cfg.epochs):
        for batch in chronological_batches(stream, cfg.batch_size, rng):
            yield epoch, batch


def pretrain_static_link_prediction(encoder, stream: EventStream,
                                    cfg: BaselinePretrainConfig) -> list[float]:
    """Link-prediction pre-training for the static GNNs."""
    rng = np.random.default_rng(cfg.seed)
    head = LinkPredictionHead(encoder.embed_dim, rng)
    encoder.attach(stream)
    params = encoder.parameters() + head.parameters()
    optimizer = Adam(params, lr=cfg.learning_rate)
    losses = []
    for _, batch in _loop(stream, cfg, rng):
        z_src, z_dst, z_neg = embed_together(
            encoder.compute_embedding, batch.timestamps,
            batch.src, batch.dst, batch.neg_dst)
        loss = head.loss(z_src, z_dst, z_neg)
        optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(params, cfg.grad_clip)
        optimizer.step()
        losses.append(loss.item())
    return losses


def pretrain_dynamic_link_prediction(encoder, stream: EventStream,
                                     cfg: BaselinePretrainConfig) -> list[float]:
    """Temporal-link-prediction pre-training for memory DGNNs
    (the DyRep / JODIE / TGN baselines of paper §V-B)."""
    rng = np.random.default_rng(cfg.seed)
    head = LinkPredictionHead(encoder.embed_dim, rng)
    encoder.attach(stream)
    encoder.reset_memory()
    params = encoder.parameters() + head.parameters()
    optimizer = Adam(params, lr=cfg.learning_rate)
    losses = []
    for epoch, batch in _loop(stream, cfg, rng):
        if batch.event_ids[0] == 0:   # new epoch: restart the memory walk
            encoder.reset_memory()
        z_src, z_dst, z_neg = embed_together(
            encoder.compute_embedding, batch.timestamps,
            batch.src, batch.dst, batch.neg_dst)
        loss = head.loss(z_src, z_dst, z_neg)
        optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(params, cfg.grad_clip)
        optimizer.step()
        encoder.register_batch(batch)
        encoder.end_batch()
        losses.append(loss.item())
    return losses


def pretrain_dgi(encoder, stream: EventStream,
                 cfg: BaselinePretrainConfig) -> list[float]:
    """DGI local-global mutual-information pre-training."""
    rng = np.random.default_rng(cfg.seed)
    discriminator = DGIDiscriminator(encoder.embed_dim, rng)
    encoder.attach(stream)
    params = encoder.parameters() + discriminator.parameters()
    optimizer = Adam(params, lr=cfg.learning_rate)
    losses = []
    for _, batch in _loop(stream, cfg, rng):
        nodes = np.concatenate([batch.src, batch.dst])
        ts = np.concatenate([batch.timestamps, batch.timestamps])
        loss = dgi_loss(encoder, discriminator, nodes, ts, rng)
        optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(params, cfg.grad_clip)
        optimizer.step()
        losses.append(loss.item())
    return losses


def pretrain_gptgnn(encoder, stream: EventStream,
                    cfg: BaselinePretrainConfig) -> list[float]:
    """GPT-GNN generative pre-training (edge + attribute generation)."""
    rng = np.random.default_rng(cfg.seed)
    edge_dim = stream.edge_feats.shape[1] if stream.edge_feats is not None else 0
    heads = GPTGNNHeads(encoder.embed_dim, edge_dim, rng)
    encoder.attach(stream)
    params = encoder.parameters() + heads.parameters()
    optimizer = Adam(params, lr=cfg.learning_rate)
    losses = []
    for _, batch in _loop(stream, cfg, rng):
        loss = gptgnn_loss(encoder, heads, batch, stream.edge_feats)
        optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(params, cfg.grad_clip)
        optimizer.step()
        losses.append(loss.item())
    return losses


def pretrain_ddgcl(encoder, stream: EventStream,
                   cfg: BaselinePretrainConfig) -> list[float]:
    """DDGCL two-temporal-view contrastive pre-training."""
    rng = np.random.default_rng(cfg.seed)
    critic = DDGCLCritic(encoder.embed_dim, encoder.time_dim, rng)
    encoder.attach(stream)
    view_gap = max(stream.timespan * 0.05, 1e-3)
    params = encoder.parameters() + critic.parameters()
    optimizer = Adam(params, lr=cfg.learning_rate)
    losses = []
    for _, batch in _loop(stream, cfg, rng):
        loss = ddgcl_loss(encoder, critic, batch.src, batch.timestamps,
                          view_gap, rng)
        optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(params, cfg.grad_clip)
        optimizer.step()
        losses.append(loss.item())
    return losses


def pretrain_selfrgnn(encoder, stream: EventStream,
                      cfg: BaselinePretrainConfig) -> list[float]:
    """SelfRGNN curvature-view self-contrast pre-training."""
    rng = np.random.default_rng(cfg.seed)
    encoder.attach(stream)
    time_shift = max(stream.timespan * 0.05, 1e-3)
    params = encoder.parameters()
    optimizer = Adam(params, lr=cfg.learning_rate)
    losses = []
    for _, batch in _loop(stream, cfg, rng):
        loss = selfrgnn_loss(encoder, batch.src, batch.timestamps, time_shift)
        optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(params, cfg.grad_clip)
        optimizer.step()
        losses.append(loss.item())
    return losses
