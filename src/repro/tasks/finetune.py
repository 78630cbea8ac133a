"""Fine-tuning plumbing shared by the downstream tasks (paper §IV-C, §V-C).

Handles loading a :class:`~repro.core.pretrainer.PretrainResult` into a
fresh encoder (parameters + memory + last-update times) and constructing
the optional EIE module per fine-tuning strategy:

* ``full``      — plain full fine-tuning of the pre-trained encoder;
* ``eie-mean`` / ``eie-attn`` / ``eie-gru`` — EIE-enhanced fine-tuning
  (paper Table XI);
* ``none``      — no pre-training at all (randomly initialised encoder).

:class:`FineTuneTask` is the one training loop both downstream tasks run
(:meth:`FineTuneTask.fit`, plain eager autograd); a task supplies its step
loss and its validation call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..core.config import CPDGConfig, check_finite_positive
from ..core.eie import EIEModule
from ..core.pretrainer import PretrainResult
from ..datasets.splits import DownstreamSplit
from ..dgnn.encoder import DGNNEncoder, make_encoder
from ..graph.events import EventStream
from ..nn.autograd import Tensor, default_dtype
from ..nn.optim import Adam, clip_grad_norm
from ..stream import ProducerSpec, SerialProducer
from .early_stopping import EarlyStopper

__all__ = ["FineTuneConfig", "FineTuneStrategy", "FineTuneTask",
           "build_finetuned_encoder",
           "in_strategy_dtype", "STRATEGIES"]

STRATEGIES = ("none", "full", "eie-mean", "eie-attn", "eie-gru")


@dataclass
class FineTuneConfig:
    """Downstream optimisation knobs."""

    epochs: int = 5
    batch_size: int = 200
    learning_rate: float = 1e-3
    grad_clip: float = 5.0
    patience: int = 3
    eie_out_dim: int = 16
    seed: int = 0

    def validate(self) -> None:
        check_finite_positive("learning_rate", self.learning_rate)
        check_finite_positive("grad_clip", self.grad_clip)


@dataclass
class FineTuneStrategy:
    """Resolved strategy: the encoder plus the optional EIE module."""

    name: str
    encoder: DGNNEncoder
    eie: EIEModule | None

    @property
    def head_input_dim(self) -> int:
        base = self.encoder.embed_dim
        return base + (self.eie.out_dim if self.eie is not None else 0)

    @property
    def dtype(self) -> np.dtype:
        """Precision the downstream stage runs at (from the encoder).

        Baseline encoders (static GNNs, TGAT) have no memory dtype and
        fall back to the float64 substrate default.
        """
        return getattr(self.encoder, "dtype", np.dtype(np.float64))


def in_strategy_dtype(method):
    """Run a task method under its strategy's dtype.

    Downstream trainers create per-batch tensors inside their loops; this
    keeps those at the precision the encoder was built with
    (``CPDGConfig.dtype``) instead of silently promoting to float64.
    """
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with default_dtype(self.strategy.dtype):
            return method(self, *args, **kwargs)
    return wrapper


class FineTuneTask:
    """One strategy fine-tuned on one downstream split: the state and the
    training loop the downstream tasks share.

    ``head`` is the task's scoring module, built by the subclass from
    ``rng`` (under the strategy's dtype) before the stream is attached.
    """

    def __init__(self, strategy: FineTuneStrategy, split: DownstreamSplit,
                 config: FineTuneConfig, rng: np.random.Generator, head):
        self.strategy = strategy
        self.split = split
        self.config = config
        self._rng = rng
        self.head = head
        # Attach the full downstream stream: NeighborFinder queries are
        # strictly-before-t, so no future leakage is possible.
        self._full_stream = EventStream.concatenate(
            [split.train, split.val, split.test], name="downstream")
        strategy.encoder.attach(self._full_stream)
        self._initial_memory = strategy.encoder.memory_snapshot()

    def _embed(self, nodes: np.ndarray, ts: np.ndarray) -> Tensor:
        """Encoder embeddings with the optional EIE enhancement."""
        z = self.strategy.encoder.compute_embedding(nodes, ts)
        if self.strategy.eie is not None:
            z = self.strategy.eie(z, nodes)
        return z

    def _all_modules(self) -> list:
        modules = [self.strategy.encoder, self.head]
        if self.strategy.eie is not None:
            modules.append(self.strategy.eie)
        return modules

    def _restore_memory(self) -> None:
        state, last_update = self._initial_memory
        self.strategy.encoder.load_memory(state, last_update)

    def _absorb(self, batch) -> None:
        """Fold an observed (not trained-on) batch into the memory.

        Pending messages are flushed first, so the ingested events build
        on up-to-date states even when nothing was embedded this batch.
        """
        encoder = self.strategy.encoder
        encoder.flush_messages()
        encoder.register_batch(batch)
        encoder.end_batch()

    def fit(self, step_loss, validate, *, tag: str, neg_candidates=None,
            verbose: bool = False) -> list[dict]:
        """Fine-tune with early stopping; returns per-epoch history.

        ``step_loss(batch)`` is one batch's scalar loss; ``validate()``
        returns the epoch's validation columns, ``val_auc`` (the
        early-stopping metric) first.  The loop consumes a
        :class:`~repro.stream.SerialProducer`'s
        :class:`~repro.stream.PreparedBatch`es: chronological slices with
        per-batch-seeded negatives and no contrast subgraphs, cheap
        enough to produce in process.  Every epoch restarts the memory
        from the post-pre-training state, and the best epoch's parameters
        are restored at the end.  Steps run eager autograd: replaying them
        compiled bought nothing measurable on ``transfer-e2e`` (2 cores,
        10 pairs: 1.059 s with against 1.062 s without, inside the
        run-to-run spread) and held more memory (154.6 against 150.3 MB
        peak RSS).
        """
        cfg = self.config
        encoder = self.strategy.encoder
        modules = self._all_modules()
        params = [p for module in modules for p in module.parameters()]
        optimizer = Adam(params, lr=cfg.learning_rate)
        stopper = EarlyStopper(patience=cfg.patience)
        best_states = [m.state_dict() for m in modules]
        history: list[dict] = []

        # neg_candidates pins the corrupted-destination pool (the tasks
        # use the full downstream stream's destinations, not just the
        # training segment's).
        producer = SerialProducer(ProducerSpec(
            batch_size=cfg.batch_size, seed=cfg.seed, epochs=cfg.epochs,
            neg_candidates=neg_candidates, stream=self.split.train))
        last_batch = producer.plan.batches_per_epoch - 1
        for prepared in producer:
            if prepared.batch_idx == 0:
                self._restore_memory()
                epoch_loss = 0.0
                n_batches = 0
            batch = prepared.batch
            optimizer.zero_grad()
            # The first embedding of the step flushes the pending
            # messages inside this batch's graph.
            loss = step_loss(batch)
            loss.backward()
            clip_grad_norm(params, cfg.grad_clip)
            optimizer.step()
            encoder.register_batch(batch)
            encoder.end_batch()
            epoch_loss += loss.item()
            n_batches += 1
            if prepared.batch_idx != last_batch:
                continue

            epoch = prepared.epoch
            row = {"epoch": epoch, "loss": epoch_loss / max(n_batches, 1),
                   **validate()}
            history.append(row)
            if verbose:
                print(f"[{tag}] epoch {epoch}: loss={row['loss']:.4f} "
                      f"val_auc={row['val_auc']:.4f}")
            # An undefined AUC (one class in the validation segment)
            # must not become a "best" no later epoch can beat.
            val_auc = row["val_auc"]
            stop = stopper.update(val_auc if np.isfinite(val_auc)
                                  else 0.5)
            if stopper.best_round == epoch:
                best_states = [m.state_dict() for m in modules]
            if stop:
                break

        for module, state in zip(modules, best_states):
            module.load_state_dict(state)
        return history


def build_finetuned_encoder(backbone: str, num_nodes: int,
                            model_config: CPDGConfig,
                            pretrain: PretrainResult | None,
                            strategy: str,
                            finetune_config: FineTuneConfig,
                            delta_scale: float = 1.0) -> FineTuneStrategy:
    """Build the downstream encoder for one fine-tuning strategy.

    With pre-training, the encoder parameters are initialised from θ* and
    the memory (and last-update clock) continues from the pre-trained
    state — the carried-over evolution the paper's Definition 2 highlights.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected {STRATEGIES}")
    rng = np.random.default_rng(finetune_config.seed)
    # Construct under the configured dtype so downstream parameters (and
    # the EIE module) match the pre-trained precision end-to-end.
    with default_dtype(model_config.np_dtype):
        encoder = make_encoder(
            backbone, num_nodes, rng,
            memory_dim=model_config.memory_dim, embed_dim=model_config.embed_dim,
            time_dim=model_config.time_dim, edge_dim=model_config.edge_dim,
            n_neighbors=model_config.n_neighbors, n_layers=model_config.n_layers,
            delta_scale=delta_scale, dtype=model_config.np_dtype)

        eie = None
        if strategy == "none":
            if pretrain is not None:
                raise ValueError("strategy 'none' must not receive a pretrain result")
        else:
            if pretrain is None:
                raise ValueError(f"strategy {strategy!r} requires a pretrain result")
            encoder.load_state_dict(pretrain.encoder_state)
            encoder.load_memory(pretrain.memory_state, pretrain.last_update)
            if strategy.startswith("eie-"):
                fuser = strategy.split("-", 1)[1]
                eie = EIEModule(pretrain.checkpoints, fuser,
                                out_dim=finetune_config.eie_out_dim, rng=rng)
    return FineTuneStrategy(name=strategy, encoder=encoder, eie=eie)
