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
from ..nn.autograd import default_dtype, no_grad
from ..nn.layers import MLP
from ..nn.losses import bce_with_logits
from ..datasets.splits import DownstreamSplit
from .finetune import (FineTuneConfig, FineTuneStrategy, FineTuneTask,
                       in_strategy_dtype)
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


class NodeClassificationTask(FineTuneTask):
    """Fine-tune and evaluate one strategy on a labelled downstream split."""

    def __init__(self, strategy: FineTuneStrategy, split: DownstreamSplit,
                 config: FineTuneConfig):
        for part_name, part in (("train", split.train), ("val", split.val),
                                ("test", split.test)):
            if part.labels is None:
                raise ValueError(f"{part_name} stream has no labels")
        rng = np.random.default_rng(config.seed + 29)
        dim = strategy.head_input_dim
        with default_dtype(strategy.dtype):
            head = MLP([dim, dim, 1], rng)
        super().__init__(strategy, split, config, rng, head)

    # ------------------------------------------------------------------
    @in_strategy_dtype
    def train(self, verbose: bool = False) -> list[dict]:
        """Fine-tune with early stopping on validation AUC; returns the
        per-epoch history (:meth:`FineTuneTask.fit`)."""
        def step_loss(batch):
            z_src = self._embed(batch.src, batch.timestamps)
            logits = self.head(z_src).reshape(-1)
            return bce_with_logits(logits, batch.labels)

        def validate():
            val = self._score_stream(self.split.val,
                                     warmups=[self.split.train])
            return {"val_auc": val.auc}

        return self.fit(step_loss, validate, tag="nc", verbose=verbose)

    # ------------------------------------------------------------------
    @in_strategy_dtype
    def _score_stream(self, stream: EventStream,
                      warmups: list[EventStream]) -> NodeClassificationMetrics:
        self._restore_memory()
        labels_all: list[np.ndarray] = []
        scores_all: list[np.ndarray] = []
        with no_grad():
            for warm in warmups:
                for batch in chronological_batches(warm, self.config.batch_size,
                                                   self._rng):
                    self._absorb(batch)
            for batch in chronological_batches(stream, self.config.batch_size,
                                               self._rng):
                z_src = self._embed(batch.src, batch.timestamps)
                probs = F.sigmoid(self.head(z_src).reshape(-1)).data
                labels_all.append(batch.labels)
                scores_all.append(probs)
                self._absorb(batch)
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
