"""Downstream dynamic node classification (paper §V-C, Table IX).

Predict the dynamic state label of the *source* node at each event time
(banned user / dropout student).  The encoder walks the stream
chronologically; the classification head scores the source embedding
*before* the event updates the memory.  AUC is the reported metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.batching import chronological_batches
from ..graph.events import EventStream
from ..nn import functional as F
from ..nn.autograd import Tensor, default_dtype, no_grad
from ..nn.compile import CompiledStep
from ..nn.layers import MLP
from ..nn.losses import bce_with_logits
from ..nn.optim import Adam, clip_grad_norm
from ..datasets.splits import DownstreamSplit
from .early_stopping import EarlyStopper
from .finetune import (FineTuneConfig, FineTuneStrategy, in_strategy_dtype,
                       training_producer)
from .metrics import roc_auc_score

__all__ = ["NodeClassificationMetrics", "NodeClassificationTask"]


@dataclass
class NodeClassificationMetrics:
    """AUC over a scored stream segment."""

    auc: float
    num_events: int
    positive_rate: float

    def as_row(self) -> dict:
        return {"AUC": round(self.auc, 4), "n": self.num_events,
                "pos_rate": round(self.positive_rate, 4)}


class NodeClassificationTask:
    """Fine-tune and evaluate one strategy on a labelled downstream split."""

    def __init__(self, strategy: FineTuneStrategy, split: DownstreamSplit,
                 config: FineTuneConfig):
        for part_name, part in (("train", split.train), ("val", split.val),
                                ("test", split.test)):
            if part.labels is None:
                raise ValueError(f"{part_name} stream has no labels")
        self.strategy = strategy
        self.split = split
        self.config = config
        self._rng = np.random.default_rng(config.seed + 29)
        dim = strategy.head_input_dim
        with default_dtype(strategy.dtype):
            self.head = MLP([dim, dim, 1], self._rng)
        self._full_stream = EventStream.concatenate(
            [split.train, split.val, split.test], name="downstream")
        strategy.encoder.attach(self._full_stream)
        self._initial_memory = strategy.encoder.memory_snapshot()

    # ------------------------------------------------------------------
    def _embed(self, nodes: np.ndarray, ts: np.ndarray) -> Tensor:
        z = self.strategy.encoder.compute_embedding(nodes, ts)
        if self.strategy.eie is not None:
            z = self.strategy.eie(z, nodes)
        return z

    def _trainable_params(self):
        params = self.strategy.encoder.parameters() + self.head.parameters()
        if self.strategy.eie is not None:
            params += self.strategy.eie.parameters()
        return params

    def _all_modules(self):
        modules = [self.strategy.encoder, self.head]
        if self.strategy.eie is not None:
            modules.append(self.strategy.eie)
        return modules

    def _restore_memory(self) -> None:
        state, last_update = self._initial_memory
        self.strategy.encoder.load_memory(state, last_update)

    # ------------------------------------------------------------------
    @in_strategy_dtype
    def train(self, verbose: bool = False) -> list[dict]:
        """Fine-tune with early stopping — a pure consumer of
        :class:`~repro.stream.PreparedBatch`es (see
        :func:`~repro.tasks.finetune.training_producer`)."""
        cfg = self.config
        encoder = self.strategy.encoder
        params = self._trainable_params()
        optimizer = Adam(params, lr=cfg.learning_rate)
        stopper = EarlyStopper(patience=cfg.patience)
        best_states = [m.state_dict() for m in self._all_modules()]
        history: list[dict] = []

        # Memoryless encoders (static baselines, TGAT) have no staged
        # message queue; treat them as always-empty.
        take_staged = getattr(encoder, "take_staged", lambda: None)
        flush_staged = getattr(encoder, "flush_staged", lambda staged: None)

        def train_step(batch, staged):
            optimizer.zero_grad()
            flush_staged(staged)
            z_src = self._embed(batch.src, batch.timestamps)
            logits = self.head(z_src).reshape(-1)
            loss = bce_with_logits(logits, batch.labels)
            loss.backward()
            return loss.item()

        compiled = CompiledStep(train_step, enabled=cfg.compile_step)

        producer = training_producer(self.split.train, cfg)
        last_batch = producer.plan.batches_per_epoch - 1
        epoch_loss = 0.0
        n_batches = 0
        with producer:
            for prepared in producer:
                if prepared.batch_idx == 0:
                    self._restore_memory()
                    epoch_loss = 0.0
                    n_batches = 0
                batch = prepared.batch
                staged = take_staged()
                loss_v = compiled(batch, staged,
                                  key=(len(batch), staged is None))
                clip_grad_norm(params, cfg.grad_clip)
                optimizer.step()
                encoder.register_batch(batch)
                encoder.end_batch()
                epoch_loss += loss_v
                n_batches += 1
                if prepared.batch_idx != last_batch:
                    continue

                epoch = prepared.epoch
                val = self._score_stream(self.split.val,
                                         warmups=[self.split.train])
                history.append({"epoch": epoch,
                                "loss": epoch_loss / max(n_batches, 1),
                                "val_auc": val.auc})
                if verbose:
                    print(f"[nc] epoch {epoch}: loss={history[-1]['loss']:.4f} "
                          f"val_auc={val.auc:.4f}")
                value = val.auc if np.isfinite(val.auc) else 0.5
                stop = stopper.update(value)
                if stopper.best_round == epoch:
                    best_states = [m.state_dict() for m in self._all_modules()]
                if stop:
                    break

        for module, state in zip(self._all_modules(), best_states):
            module.load_state_dict(state)
        return history

    # ------------------------------------------------------------------
    @in_strategy_dtype
    def _score_stream(self, stream: EventStream,
                      warmups: list[EventStream]) -> NodeClassificationMetrics:
        encoder = self.strategy.encoder
        self._restore_memory()
        labels_all: list[np.ndarray] = []
        scores_all: list[np.ndarray] = []
        with no_grad():
            for warm in warmups:
                for batch in chronological_batches(warm, self.config.batch_size,
                                                   self._rng):
                    encoder.flush_messages()
                    encoder.register_batch(batch)
                    encoder.end_batch()
            for batch in chronological_batches(stream, self.config.batch_size,
                                               self._rng):
                z_src = self._embed(batch.src, batch.timestamps)
                probs = F.sigmoid(self.head(z_src).reshape(-1)).data
                labels_all.append(batch.labels)
                scores_all.append(probs)
                encoder.flush_messages()
                encoder.register_batch(batch)
                encoder.end_batch()
        labels = np.concatenate(labels_all)
        scores = np.concatenate(scores_all)
        if len(set(labels.tolist())) < 2:
            return NodeClassificationMetrics(auc=float("nan"),
                                             num_events=len(labels),
                                             positive_rate=float(labels.mean()))
        return NodeClassificationMetrics(
            auc=roc_auc_score(labels, scores),
            num_events=len(labels),
            positive_rate=float(labels.mean()),
        )

    def evaluate(self) -> NodeClassificationMetrics:
        return self._score_stream(self.split.test,
                                  warmups=[self.split.train, self.split.val])

    def run(self, verbose: bool = False) -> NodeClassificationMetrics:
        self.train(verbose=verbose)
        return self.evaluate()
