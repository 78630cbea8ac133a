"""The CPDG pre-training loop (paper Algorithm 1), consumer side.

Per batch, Algorithm 1 (i) samples η-BFS/ε-DFS contrast subgraphs,
(ii) stages raw messages and (iii) takes one gradient step.  Step (i) is
*production* — a pure function of the graph once seeds derive from batch
coordinates — and lives in :mod:`repro.stream`.  This trainer is the
consumer: it iterates :class:`~repro.stream.PreparedBatch`es from a
:class:`~repro.stream.BatchProducer` (forked children given a spare
core — ``max(config.num_workers, 1)`` of them — in process otherwise)
and keeps encoder / memory / optimizer state; message staging (ii)
reads the memory, so it runs here.  Per batch it

1. computes centre-node embeddings with the DGNN encoder,
2. pools the pre-sampled temporal positive/negative subgraphs and
   computes ``L_η`` (Eq. 11),
3. pools the pre-sampled structural subgraphs and computes ``L_ε``
   (Eq. 14),
4. adds the temporal-link-prediction pretext ``L_tlp`` (Eq. 16),
5. minimises ``L_pre = (1-β)·L_η + β·L_ε + L_tlp`` (Eq. 17),

while snapshotting the memory ``L`` times uniformly over training for the
EIE module (Eq. 18).  Because every batch's randomness is keyed by
``(seed, epoch, batch_idx)``, serial and worker-produced runs yield
bit-identical loss histories.  Ablation flags reproduce the w/o-TC and
w/o-SC variants of Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs as _obs
from ..dgnn.encoder import DGNNEncoder, embed_together, make_encoder
from ..graph.events import EventStream
from ..graph.neighbor_finder import NeighborFinder
from ..nn.autograd import Tensor, default_dtype
from ..nn.compile import CompiledStep
from ..nn.optim import Adam, clip_grad_norm
from .checkpoints import CheckpointSchedule, MemoryCheckpoints
from .config import CPDGConfig
from .contrast import contrast_loss_from_pairs
from .pretext import LinkPredictionHead

__all__ = ["PretrainResult", "CPDGPreTrainer"]


@dataclass
class PretrainResult:
    """Everything fine-tuning needs from pre-training.

    ``encoder_state`` are the pre-trained parameters θ*; ``memory_state`` /
    ``last_update`` the final memory; ``checkpoints`` the EIE snapshot
    sequence; ``loss_history`` per-batch values of (L_η, L_ε, L_tlp).
    """

    encoder_state: dict[str, np.ndarray]
    memory_state: np.ndarray
    last_update: np.ndarray
    checkpoints: MemoryCheckpoints
    loss_history: list[tuple[float, float, float]] = field(default_factory=list)

    @property
    def final_losses(self) -> tuple[float, float, float]:
        return self.loss_history[-1] if self.loss_history else (0.0, 0.0, 0.0)


class CPDGPreTrainer:
    """Pre-train a DGNN encoder with the CPDG objectives.

    Parameters
    ----------
    encoder:
        A :class:`~repro.dgnn.encoder.DGNNEncoder`; use
        :meth:`from_backbone` to build encoder + trainer in one call.
    config:
        :class:`~repro.core.config.CPDGConfig` hyper-parameters.
    """

    def __init__(self, encoder: DGNNEncoder, config: CPDGConfig):
        config.validate()
        self.encoder = encoder
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        with default_dtype(config.np_dtype):
            self.pretext = LinkPredictionHead(encoder.embed_dim, self._rng)

    @classmethod
    def from_backbone(cls, backbone: str, num_nodes: int, config: CPDGConfig,
                      delta_scale: float = 1.0) -> "CPDGPreTrainer":
        rng = np.random.default_rng(config.seed)
        with default_dtype(config.np_dtype):
            encoder = make_encoder(
                backbone, num_nodes, rng,
                memory_dim=config.memory_dim, embed_dim=config.embed_dim,
                time_dim=config.time_dim, edge_dim=config.edge_dim,
                n_neighbors=config.n_neighbors, n_layers=config.n_layers,
                delta_scale=delta_scale, dtype=config.np_dtype)
        return cls(encoder, config)

    # ------------------------------------------------------------------
    # production setup
    # ------------------------------------------------------------------
    def producer_spec(self, stream: EventStream):
        """The production recipe Algorithm 1 needs for ``stream``
        (a :class:`~repro.stream.ProducerSpec`)."""
        # Imported here (not at module level): repro.stream's producers
        # import the samplers from repro.core, and worker processes import
        # repro.stream first — a module-level import either way would be
        # circular.
        from ..stream import ProducerSpec
        cfg = self.config
        return ProducerSpec(
            batch_size=cfg.batch_size, seed=cfg.seed, epochs=cfg.epochs,
            sample_temporal=cfg.use_temporal_contrast and cfg.beta < 1.0,
            sample_structural=cfg.use_structural_contrast and cfg.beta > 0.0,
            eta=cfg.eta, epsilon=cfg.epsilon, depth=cfg.depth, tau=cfg.tau,
            precompute_samplers=cfg.precompute_samplers,
            sampler_cache_capacity=cfg.sampler_cache_capacity,
            stream=stream)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def pretrain(self, stream: EventStream, verbose: bool = False) -> PretrainResult:
        """Run Algorithm 1 on ``stream`` and return the transfer package.

        The whole loop runs under the configured tensor dtype
        (``config.dtype``) so constants created per batch match the
        memory/parameter precision.
        """
        with default_dtype(self.config.np_dtype):
            return self._pretrain(stream, verbose)

    def _pretrain(self, stream: EventStream, verbose: bool) -> PretrainResult:
        from ..stream import BatchPlan, make_producer
        cfg = self.config
        encoder = self.encoder

        finder = NeighborFinder(stream)
        encoder.attach(stream, finder)
        encoder.reset_memory()

        plan = BatchPlan(stream.num_events, cfg.batch_size,
                         epochs=cfg.epochs, seed=cfg.seed)
        spec = self.producer_spec(stream)
        producer = make_producer(spec, plan, num_workers=cfg.num_workers,
                                 prefetch_batches=cfg.prefetch_batches,
                                 finder=finder)

        params = encoder.parameters() + self.pretext.parameters()
        optimizer = Adam(params, lr=cfg.learning_rate)
        schedule = CheckpointSchedule(len(plan), cfg.num_checkpoints)
        checkpoints = MemoryCheckpoints(dtype=cfg.np_dtype)

        def train_step(prepared, staged):
            """One Algorithm-1 gradient step (the traced/replayed region).

            Mutable inputs (staged raw messages) are popped by the caller
            and passed in, so a replay mismatch can transparently re-run
            this function for the same batch.
            """
            batch = prepared.batch
            optimizer.zero_grad()
            # The spans are plain Python context managers — they record
            # no autograd ops, so they are safe inside the traced region.
            with _obs.span("pretrain.forward"):
                encoder.flush_staged(staged)
                z_src, z_dst, z_neg = embed_together(
                    encoder.compute_embedding, batch.timestamps,
                    batch.src, batch.dst, batch.neg_dst)
                memory = encoder.flush_messages()

                zero = Tensor(0.0)
                loss_eta = zero
                if spec.sample_temporal:
                    loss_eta = contrast_loss_from_pairs(
                        z_src, memory, *prepared.temporal_pairs,
                        readout=cfg.readout, objective=cfg.objective,
                        margin=cfg.margin)
                loss_eps = zero
                if spec.sample_structural:
                    loss_eps = contrast_loss_from_pairs(
                        z_src, memory, *prepared.structural_pairs,
                        readout=cfg.readout, objective=cfg.objective,
                        margin=cfg.margin)
                loss_tlp = self.pretext.loss(z_src, z_dst, z_neg)

                loss = loss_tlp
                if cfg.use_temporal_contrast:
                    loss = loss + (1.0 - cfg.beta) * loss_eta
                if cfg.use_structural_contrast:
                    loss = loss + cfg.beta * loss_eps

            with _obs.span("pretrain.backward"):
                loss.backward()
            return loss_eta.item(), loss_eps.item(), loss_tlp.item()

        compiled = CompiledStep(train_step, enabled=cfg.compile_step)

        def step_key(prepared, staged):
            # Every shape/branch degree of freedom of train_step: batch
            # size, whether messages are pending, and subgraph emptiness
            # (empty subgraphs short-circuit the readout).
            key = (len(prepared.batch), staged is None)
            for sg in (*(prepared.temporal_pairs if spec.sample_temporal
                         else ()),
                       *(prepared.structural_pairs if spec.sample_structural
                         else ())):
                key += (len(sg.nodes) == 0,)
            return key

        history: list[tuple[float, float, float]] = []
        step = 0
        current_epoch = -1
        steps_total = _obs.counter("repro_pretrain_steps_total",
                                   help="completed gradient steps")
        with producer:
            batches = iter(producer)
            while True:
                # Manual iteration so the wait for the next prepared
                # batch is its own span — producer stalls show up as
                # pretrain.produce time, not as mystery step time.  The
                # batch itself is produced in another process (except on
                # one usable core), so the span is the wait, not the
                # production.
                with _obs.span("pretrain.produce"):
                    try:
                        prepared = next(batches)
                    except StopIteration:
                        break
                if prepared.epoch != current_epoch:
                    if verbose and current_epoch >= 0:
                        self._print_epoch(current_epoch, history)
                    current_epoch = prepared.epoch
                    encoder.reset_memory()
                step += 1
                staged = encoder.take_staged()
                losses = compiled(prepared, staged,
                                  key=step_key(prepared, staged))
                with _obs.span("pretrain.optim"):
                    clip_grad_norm(params, cfg.grad_clip)
                    optimizer.step()

                with _obs.span("pretrain.register"):
                    encoder.register_batch(prepared.batch)
                    encoder.end_batch()
                history.append(losses)
                steps_total.inc()

                if schedule.should_checkpoint(step):
                    checkpoints.add(encoder.memory_checkpoint())
        if verbose and current_epoch >= 0:
            self._print_epoch(current_epoch, history)

        # The schedule always ends on the final step, so the last
        # (frozen) checkpoint already is the final memory.
        final = checkpoints[-1]
        return PretrainResult(
            encoder_state=encoder.state_dict(),
            memory_state=(final if final.dtype == encoder.dtype
                          else encoder.memory_checkpoint()),
            last_update=encoder.memory.last_update.copy(),
            checkpoints=checkpoints,
            loss_history=history,
        )

    def _print_epoch(self, epoch: int,
                     history: list[tuple[float, float, float]]) -> None:
        eta_v, eps_v, tlp_v = history[-1]
        print(f"[cpdg] epoch {epoch + 1}/{self.config.epochs} "
              f"L_eta={eta_v:.4f} L_eps={eps_v:.4f} L_tlp={tlp_v:.4f}")
