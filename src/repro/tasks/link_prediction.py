"""Downstream dynamic link prediction (paper §V-C).

Protocol (matching the TGN evaluation convention the paper follows):

* the encoder walks the downstream stream chronologically; each observed
  event both contributes a prediction (scored *before* the model ingests
  it) and then updates the memory;
* each positive edge is paired with one corrupted destination; AUC and AP
  are computed over the pooled positive/negative scores.  A segment's
  corrupted destinations come from a generator keyed by ``(fine-tune
  seed, segment)``, so every strategy, every validation pass and a model
  re-loaded from a saved artifact score the same negatives;
* every training epoch restarts the memory from the post-pre-training
  state, so fine-tuning never leaks test-period information backwards;
* early stopping on validation AUC with parameter restore (§V-C);
* the *inductive* variant (paper Table X) restricts scoring to events
  touching at least one node never seen in fine-tuning training data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.pretext import LinkPredictionHead
from ..dgnn.encoder import embed_together
from ..graph.batching import RandomDestinationSampler, chronological_batches
from ..nn.autograd import default_dtype, no_grad
from ..datasets.splits import DownstreamSplit
from .finetune import (FineTuneConfig, FineTuneStrategy, FineTuneTask,
                       in_strategy_dtype)
from .metrics import average_precision_score, roc_auc_score

__all__ = ["LinkPredictionMetrics", "LinkPredictionTask"]

# Keeps scored-negative seeds disjoint from other uses of the fine-tune
# seed (cf. the stream pipeline's per-batch seeding).
_NEGATIVES_DOMAIN = 0x11E6
_SEGMENTS = ("train", "val", "test")


@dataclass
class LinkPredictionMetrics:
    """AUC / AP over a scored stream segment."""

    auc: float
    ap: float
    num_events: int

    def as_row(self) -> dict:
        return {"AUC": round(self.auc, 4), "AP": round(self.ap, 4),
                "n": self.num_events}


class LinkPredictionTask(FineTuneTask):
    """Fine-tune and evaluate one strategy on one downstream split."""

    def __init__(self, strategy: FineTuneStrategy, split: DownstreamSplit,
                 config: FineTuneConfig):
        rng = np.random.default_rng(config.seed + 17)
        with default_dtype(strategy.dtype):
            head = LinkPredictionHead(strategy.head_input_dim, rng)
        super().__init__(strategy, split, config, rng, head)
        self._neg_sampler = RandomDestinationSampler(self._full_stream)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    @in_strategy_dtype
    def train(self, verbose: bool = False) -> list[dict]:
        """Fine-tune with early stopping on validation AUC; returns the
        per-epoch history (:meth:`FineTuneTask.fit`)."""
        def step_loss(batch):
            z_src, z_dst, z_neg = embed_together(
                self._embed, batch.timestamps,
                batch.src, batch.dst, batch.neg_dst)
            return self.head.loss(z_src, z_dst, z_neg)

        def validate():
            metrics = self._score_stream("val")
            return {"val_auc": metrics.auc, "val_ap": metrics.ap}

        return self.fit(step_loss, validate, tag="lp", verbose=verbose,
                        neg_candidates=self._neg_sampler.candidates)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _segment_batches(self, segment: str, sampler=None):
        """Chronological batches of one downstream segment, corrupted by
        ``sampler`` (default: :meth:`_segment_sampler`)."""
        sampler = sampler or self._segment_sampler(segment)
        return chronological_batches(getattr(self.split, segment),
                                     self.config.batch_size, None, sampler)

    def _segment_sampler(self, segment: str) -> RandomDestinationSampler:
        """Corrupted destinations drawn from a generator keyed by
        ``(fine-tune seed, segment)``: the same on every pass."""
        rng = np.random.default_rng(np.random.SeedSequence(
            (_NEGATIVES_DOMAIN, self.config.seed, _SEGMENTS.index(segment))))
        return RandomDestinationSampler(
            self._full_stream, rng, candidates=self._neg_sampler.candidates)

    @in_strategy_dtype
    def _score_stream(self, segment: str,
                      unseen: np.ndarray | None = None,
                      warmups: tuple[str, ...] = ("train",),
                      ) -> LinkPredictionMetrics:
        """Replay from the initial memory and score ``segment``.

        The ``warmups`` segments are replayed (without scoring) first so
        memory reflects all earlier downstream history.  ``unseen``, a
        boolean mask over the node space, keeps only the events with an
        unseen endpoint.
        """
        self._restore_memory()
        with no_grad():
            for warm in warmups:
                self._replay(warm)
            labels, scores = self._replay(segment, score=True, unseen=unseen)
        if len(labels) == 0 or len(set(labels.tolist())) < 2:
            return LinkPredictionMetrics(auc=float("nan"), ap=float("nan"),
                                         num_events=len(labels) // 2)
        return LinkPredictionMetrics(
            auc=roc_auc_score(labels, scores),
            ap=average_precision_score(labels, scores),
            num_events=len(labels) // 2,
        )

    def _replay(self, segment: str, score: bool = False,
                unseen: np.ndarray | None = None):
        """Walk ``segment`` chronologically, optionally scoring events
        (those with an ``unseen`` endpoint only, when given)."""
        all_labels: list[np.ndarray] = []
        all_scores: list[np.ndarray] = []
        for batch in self._segment_batches(segment):
            if score:
                keep = (np.ones(len(batch), dtype=bool) if unseen is None
                        else unseen[batch.src] | unseen[batch.dst])
                if keep.any():
                    src, dst = batch.src[keep], batch.dst[keep]
                    neg, ts = batch.neg_dst[keep], batch.timestamps[keep]
                    z_src, z_dst, z_neg = embed_together(self._embed, ts,
                                                         src, dst, neg)
                    pos_p = self.head.probability(z_src, z_dst).data
                    neg_p = self.head.probability(z_src, z_neg).data
                    all_scores.append(np.concatenate([pos_p, neg_p]))
                    all_labels.append(np.concatenate([
                        np.ones(len(pos_p)), np.zeros(len(neg_p))]))
            self._absorb(batch)
        if score:
            if all_labels:
                return np.concatenate(all_labels), np.concatenate(all_scores)
            return np.empty(0), np.empty(0)
        return None

    def evaluate(self, inductive: bool = False) -> LinkPredictionMetrics:
        """Score the test segment (replaying train and val first).

        ``inductive=True`` restricts to events touching nodes unseen in the
        fine-tuning *training* events (paper Table X protocol).
        """
        unseen = None
        if inductive:
            unseen = np.ones(self._full_stream.num_nodes, dtype=bool)
            unseen[self.split.train.src] = False
            unseen[self.split.train.dst] = False
        return self._score_stream("test", unseen=unseen,
                                  warmups=("train", "val"))

    @in_strategy_dtype
    def evaluate_ranking(self, num_candidates: int = 20) -> "RankingMetrics":
        """Ranked-retrieval evaluation on the test segment.

        Each test event's true destination is scored against
        ``num_candidates`` sampled destinations, drawn from the test
        segment's keyed generator; returns MRR / Hits@K (see
        :mod:`repro.tasks.ranking`).
        """
        from .ranking import summarize_ranks

        self._restore_memory()
        pos_all: list[np.ndarray] = []
        neg_all: list[np.ndarray] = []
        sampler = self._segment_sampler("test")
        with no_grad():
            for warm in ("train", "val"):
                self._replay(warm)
            for batch in self._segment_batches("test", sampler):
                b = len(batch)
                z_src, z_dst = embed_together(self._embed, batch.timestamps,
                                              batch.src, batch.dst)
                pos_all.append(self.head.score(z_src, z_dst).data)
                candidates = sampler.sample(b * num_candidates)
                cand_ts = np.repeat(batch.timestamps, num_candidates)
                src_rep = np.repeat(batch.src, num_candidates)
                z_cand, z_src_rep = embed_together(self._embed, cand_ts,
                                                   candidates, src_rep)
                scores = self.head.score(z_src_rep, z_cand).data
                neg_all.append(scores.reshape(b, num_candidates))
                self._absorb(batch)
        return summarize_ranks(np.concatenate(pos_all), np.vstack(neg_all))

    def run(self, verbose: bool = False, inductive: bool = False
            ) -> LinkPredictionMetrics:
        """Train then evaluate — the one-call experiment API."""
        self.train(verbose=verbose)
        return self.evaluate(inductive=inductive)
