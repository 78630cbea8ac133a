"""Downstream dynamic link prediction (paper §V-C).

Protocol (matching the TGN evaluation convention the paper follows):

* the encoder walks the downstream stream chronologically; each observed
  event both contributes a prediction (scored *before* the model ingests
  it) and then updates the memory;
* each positive edge is paired with one corrupted destination; AUC and AP
  are computed over the pooled positive/negative scores;
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
from ..graph.events import EventStream
from ..nn.autograd import Tensor, default_dtype, no_grad
from ..nn.compile import CompiledStep
from ..nn.optim import Adam, clip_grad_norm
from ..datasets.splits import DownstreamSplit
from .early_stopping import EarlyStopper
from .finetune import (FineTuneConfig, FineTuneStrategy, in_strategy_dtype,
                       training_producer)
from .metrics import average_precision_score, roc_auc_score

__all__ = ["LinkPredictionMetrics", "LinkPredictionTask"]


@dataclass
class LinkPredictionMetrics:
    """AUC / AP over a scored stream segment."""

    auc: float
    ap: float
    num_events: int

    def as_row(self) -> dict:
        return {"AUC": round(self.auc, 4), "AP": round(self.ap, 4),
                "n": self.num_events}


class LinkPredictionTask:
    """Fine-tune and evaluate one strategy on one downstream split."""

    def __init__(self, strategy: FineTuneStrategy, split: DownstreamSplit,
                 config: FineTuneConfig):
        self.strategy = strategy
        self.split = split
        self.config = config
        self._rng = np.random.default_rng(config.seed + 17)
        with default_dtype(strategy.dtype):
            self.head = LinkPredictionHead(strategy.head_input_dim, self._rng)
        # Attach the full downstream stream: NeighborFinder queries are
        # strictly-before-t, so no future leakage is possible.
        self._full_stream = EventStream.concatenate(
            [split.train, split.val, split.test], name="downstream")
        strategy.encoder.attach(self._full_stream)
        self._initial_memory = strategy.encoder.memory_snapshot()
        self._neg_sampler = RandomDestinationSampler(self._full_stream, self._rng)

    # ------------------------------------------------------------------
    # embedding with optional EIE enhancement
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

    def _state_dicts(self):
        return [m.state_dict() for m in self._all_modules()]

    def _load_state_dicts(self, states) -> None:
        for module, state in zip(self._all_modules(), states):
            module.load_state_dict(state)

    def _restore_memory(self) -> None:
        state, last_update = self._initial_memory
        self.strategy.encoder.load_memory(state, last_update)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    @in_strategy_dtype
    def train(self, verbose: bool = False) -> list[dict]:
        """Fine-tune with early stopping; returns per-epoch history.

        The loop is a pure consumer of :class:`~repro.stream.PreparedBatch`
        (chronological slices with per-batch-seeded negatives, produced
        in-process or on ``config.num_workers`` worker processes); only
        encoder / head / optimizer state lives here.
        """
        cfg = self.config
        encoder = self.strategy.encoder
        params = self._trainable_params()
        optimizer = Adam(params, lr=cfg.learning_rate)
        stopper = EarlyStopper(patience=cfg.patience)
        best_states = self._state_dicts()
        history: list[dict] = []

        # Memoryless encoders (static baselines, TGAT) have no staged
        # message queue; treat them as always-empty.
        take_staged = getattr(encoder, "take_staged", lambda: None)
        flush_staged = getattr(encoder, "flush_staged", lambda staged: None)

        def train_step(batch, staged):
            optimizer.zero_grad()
            flush_staged(staged)
            z_src, z_dst, z_neg = embed_together(
                self._embed, batch.timestamps,
                batch.src, batch.dst, batch.neg_dst)
            loss = self.head.loss(z_src, z_dst, z_neg)
            loss.backward()
            return loss.item()

        compiled = CompiledStep(train_step, enabled=cfg.compile_step)

        producer = training_producer(self.split.train, cfg,
                                     neg_candidates=self._neg_sampler.candidates)
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
                val_metrics = self._score_stream(self.split.val)
                history.append({"epoch": epoch,
                                "loss": epoch_loss / max(n_batches, 1),
                                "val_auc": val_metrics.auc,
                                "val_ap": val_metrics.ap})
                if verbose:
                    print(f"[lp] epoch {epoch}: loss={history[-1]['loss']:.4f} "
                          f"val_auc={val_metrics.auc:.4f}")
                stop = stopper.update(val_metrics.auc)
                if stopper.best_round == epoch:
                    best_states = self._state_dicts()
                if stop:
                    break

        self._load_state_dicts(best_states)
        return history

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    @in_strategy_dtype
    def _score_stream(self, stream: EventStream,
                      restrict_new_nodes: set | None = None,
                      warmup_streams: list[EventStream] | None = None,
                      ) -> LinkPredictionMetrics:
        """Replay from the initial memory and score ``stream``.

        ``warmup_streams`` are replayed (without scoring) first so memory
        reflects all earlier downstream history; by default the training
        stream is replayed before scoring.
        """
        encoder = self.strategy.encoder
        self._restore_memory()
        warmups = warmup_streams if warmup_streams is not None else [self.split.train]
        with no_grad():
            for warm in warmups:
                self._replay(warm)
            labels, scores = self._replay(stream, score=True,
                                          restrict_new_nodes=restrict_new_nodes)
        if len(labels) == 0 or len(set(labels.tolist())) < 2:
            return LinkPredictionMetrics(auc=float("nan"), ap=float("nan"),
                                         num_events=len(labels) // 2)
        return LinkPredictionMetrics(
            auc=roc_auc_score(labels, scores),
            ap=average_precision_score(labels, scores),
            num_events=len(labels) // 2,
        )

    def _replay(self, stream: EventStream, score: bool = False,
                restrict_new_nodes: set | None = None):
        """Walk ``stream`` chronologically, optionally scoring events."""
        encoder = self.strategy.encoder
        all_labels: list[np.ndarray] = []
        all_scores: list[np.ndarray] = []
        for batch in chronological_batches(stream, self.config.batch_size,
                                           self._rng, self._neg_sampler):
            if score:
                keep = np.ones(len(batch), dtype=bool)
                if restrict_new_nodes is not None:
                    keep = np.array([
                        (int(s) in restrict_new_nodes) or (int(d) in restrict_new_nodes)
                        for s, d in zip(batch.src, batch.dst)])
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
            # Flush pending messages so the ingested events build on
            # up-to-date states even when nothing was scored this batch.
            encoder.flush_messages()
            encoder.register_batch(batch)
            encoder.end_batch()
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
        restrict = None
        if inductive:
            seen = set(np.concatenate([self.split.train.src,
                                       self.split.train.dst]).tolist())
            restrict = set(range(self._full_stream.num_nodes)) - seen
        return self._score_stream(self.split.test, restrict_new_nodes=restrict,
                                  warmup_streams=[self.split.train, self.split.val])

    @in_strategy_dtype
    def evaluate_ranking(self, num_candidates: int = 20) -> "RankingMetrics":
        """Ranked-retrieval evaluation on the test segment.

        Each test event's true destination is scored against
        ``num_candidates`` sampled destinations; returns MRR / Hits@K
        (see :mod:`repro.tasks.ranking`).
        """
        from .ranking import summarize_ranks

        encoder = self.strategy.encoder
        self._restore_memory()
        pos_all: list[np.ndarray] = []
        neg_all: list[np.ndarray] = []
        with no_grad():
            for warm in (self.split.train, self.split.val):
                self._replay(warm)
            for batch in chronological_batches(self.split.test,
                                               self.config.batch_size,
                                               self._rng, self._neg_sampler):
                b = len(batch)
                z_src, z_dst = embed_together(self._embed, batch.timestamps,
                                              batch.src, batch.dst)
                pos_all.append(self.head.score(z_src, z_dst).data)
                candidates = self._neg_sampler.sample(b * num_candidates)
                cand_ts = np.repeat(batch.timestamps, num_candidates)
                src_rep = np.repeat(batch.src, num_candidates)
                z_cand, z_src_rep = embed_together(self._embed, cand_ts,
                                                   candidates, src_rep)
                scores = self.head.score(z_src_rep, z_cand).data
                neg_all.append(scores.reshape(b, num_candidates))
                encoder.flush_messages()
                encoder.register_batch(batch)
                encoder.end_batch()
        return summarize_ranks(np.concatenate(pos_all), np.vstack(neg_all))

    def run(self, verbose: bool = False, inductive: bool = False
            ) -> LinkPredictionMetrics:
        """Train then evaluate — the one-call experiment API."""
        self.train(verbose=verbose)
        return self.evaluate(inductive=inductive)
