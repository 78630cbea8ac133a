"""Unit and integration tests for metrics, early stopping and downstream tasks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CPDGConfig, CPDGPreTrainer
from repro.datasets import split_downstream
from repro.tasks import (EarlyStopper, FineTuneConfig, FineTuneStrategy,
                         LinkPredictionTask, NodeClassificationTask,
                         STRATEGIES, accuracy_score, average_precision_score,
                         build_finetuned_encoder, roc_auc_score)


class TestMetrics:
    def test_auc_perfect_ranking(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert roc_auc_score(labels, scores) == 1.0

    def test_auc_inverted_ranking(self):
        labels = np.array([1, 1, 0, 0])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert roc_auc_score(labels, scores) == 0.0

    def test_auc_random_is_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=4000)
        scores = rng.random(4000)
        assert abs(roc_auc_score(labels, scores) - 0.5) < 0.03

    def test_auc_handles_ties(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert roc_auc_score(labels, scores) == pytest.approx(0.5)

    def test_auc_requires_both_classes(self):
        with pytest.raises(ValueError):
            roc_auc_score(np.ones(4), np.ones(4))

    def test_auc_mismatched_shapes(self):
        with pytest.raises(ValueError):
            roc_auc_score(np.ones(3), np.ones(4))

    def test_ap_perfect(self):
        labels = np.array([1, 1, 0, 0])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert average_precision_score(labels, scores) == 1.0

    def test_ap_known_value(self):
        # Ranked: pos, neg, pos -> AP = (1/1 + 2/3) / 2 = 5/6.
        labels = np.array([1, 0, 1])
        scores = np.array([0.9, 0.8, 0.7])
        assert average_precision_score(labels, scores) == pytest.approx(5 / 6)

    def test_ap_needs_positive(self):
        with pytest.raises(ValueError):
            average_precision_score(np.zeros(4), np.ones(4))

    def test_accuracy_threshold(self):
        labels = np.array([0, 1, 1])
        scores = np.array([0.3, 0.6, 0.4])
        assert accuracy_score(labels, scores) == pytest.approx(2 / 3)

    def test_auc_agrees_with_bruteforce_pair_count(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=60)
        labels[:3] = [0, 1, 0]
        scores = rng.random(60)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        expected = wins / (len(pos) * len(neg))
        assert roc_auc_score(labels, scores) == pytest.approx(expected)


class TestEarlyStopper:
    def test_stops_after_patience(self):
        stopper = EarlyStopper(patience=2)
        assert not stopper.update(0.8)
        assert not stopper.update(0.7)
        assert stopper.update(0.6)

    def test_improvement_resets(self):
        stopper = EarlyStopper(patience=2)
        stopper.update(0.5)
        stopper.update(0.4)
        assert not stopper.update(0.9)
        assert stopper.best_round == 2

    def test_lower_is_better_mode(self):
        stopper = EarlyStopper(patience=1, higher_is_better=False)
        stopper.update(1.0)
        assert not stopper.update(0.5)
        assert stopper.update(0.6)

    def test_min_delta_counts_as_no_improvement(self):
        stopper = EarlyStopper(patience=1, min_delta=0.1)
        stopper.update(0.5)
        assert stopper.update(0.55)

    def test_invalid_patience(self):
        with pytest.raises(ValueError):
            EarlyStopper(patience=0)


def tiny_cfg():
    return CPDGConfig(eta=3, epsilon=3, depth=1, epochs=1, batch_size=64,
                      memory_dim=8, embed_dim=8, time_dim=4, n_neighbors=3,
                      num_checkpoints=3, seed=0)


def tiny_ft():
    return FineTuneConfig(epochs=2, batch_size=64, patience=1, eie_out_dim=4,
                          seed=0)


class TestBuildFinetunedEncoder:
    def test_none_strategy_fresh_encoder(self, tiny_stream):
        strat = build_finetuned_encoder("tgn", tiny_stream.num_nodes,
                                        tiny_cfg(), None, "none", tiny_ft())
        assert strat.eie is None
        assert strat.encoder.memory.state.sum() == 0.0
        assert strat.head_input_dim == 8

    def test_full_strategy_loads_pretrained(self, tiny_stream):
        result = CPDGPreTrainer.from_backbone(
            "tgn", tiny_stream.num_nodes, tiny_cfg()).pretrain(tiny_stream)
        strat = build_finetuned_encoder("tgn", tiny_stream.num_nodes,
                                        tiny_cfg(), result, "full", tiny_ft())
        np.testing.assert_allclose(strat.encoder.memory.state,
                                   result.memory_state)
        state = strat.encoder.state_dict()
        for key in state:
            np.testing.assert_allclose(state[key], result.encoder_state[key])

    def test_eie_strategy_head_dim(self, tiny_stream):
        result = CPDGPreTrainer.from_backbone(
            "tgn", tiny_stream.num_nodes, tiny_cfg()).pretrain(tiny_stream)
        strat = build_finetuned_encoder("tgn", tiny_stream.num_nodes,
                                        tiny_cfg(), result, "eie-gru",
                                        tiny_ft())
        assert strat.eie is not None
        assert strat.head_input_dim == 8 + 4

    def test_none_with_pretrain_rejected(self, tiny_stream):
        result = CPDGPreTrainer.from_backbone(
            "tgn", tiny_stream.num_nodes, tiny_cfg()).pretrain(tiny_stream)
        with pytest.raises(ValueError):
            build_finetuned_encoder("tgn", tiny_stream.num_nodes, tiny_cfg(),
                                    result, "none", tiny_ft())

    def test_full_without_pretrain_rejected(self, tiny_stream):
        with pytest.raises(ValueError):
            build_finetuned_encoder("tgn", tiny_stream.num_nodes, tiny_cfg(),
                                    None, "full", tiny_ft())

    def test_unknown_strategy(self, tiny_stream):
        with pytest.raises(ValueError):
            build_finetuned_encoder("tgn", tiny_stream.num_nodes, tiny_cfg(),
                                    None, "lora", tiny_ft())


class TestLinkPredictionTask:
    def test_full_run_produces_metrics(self, tiny_stream):
        split = split_downstream(tiny_stream)
        strat = build_finetuned_encoder("tgn", tiny_stream.num_nodes,
                                        tiny_cfg(), None, "none", tiny_ft())
        metrics = LinkPredictionTask(strat, split, tiny_ft()).run()
        assert 0.0 <= metrics.auc <= 1.0
        assert 0.0 <= metrics.ap <= 1.0
        assert metrics.num_events == split.test.num_events

    def test_training_history_records_epochs(self, tiny_stream):
        split = split_downstream(tiny_stream)
        strat = build_finetuned_encoder("jodie", tiny_stream.num_nodes,
                                        tiny_cfg(), None, "none", tiny_ft())
        task = LinkPredictionTask(strat, split, tiny_ft())
        history = task.train()
        assert 1 <= len(history) <= 2
        assert {"epoch", "loss", "val_auc", "val_ap"} <= set(history[0])

    def test_inductive_restricts_to_unseen(self, tiny_stream):
        split = split_downstream(tiny_stream)
        strat = build_finetuned_encoder("tgn", tiny_stream.num_nodes,
                                        tiny_cfg(), None, "none", tiny_ft())
        task = LinkPredictionTask(strat, split, tiny_ft())
        task.train()
        inductive = task.evaluate(inductive=True)
        transductive = task.evaluate(inductive=False)
        assert inductive.num_events <= transductive.num_events

    def test_eie_strategy_runs(self, tiny_stream):
        result = CPDGPreTrainer.from_backbone(
            "tgn", tiny_stream.num_nodes, tiny_cfg()).pretrain(tiny_stream)
        strat = build_finetuned_encoder("tgn", tiny_stream.num_nodes,
                                        tiny_cfg(), result, "eie-mean",
                                        tiny_ft())
        metrics = LinkPredictionTask(strat, split_downstream(tiny_stream),
                                     tiny_ft()).run()
        assert np.isfinite(metrics.auc)

    def test_undefined_validation_auc_is_not_a_best_epoch(self, tiny_stream,
                                                          monkeypatch):
        """A NaN validation AUC in the first epoch (one class in the
        segment) counts as 0.5: later epochs still improve on it instead
        of running out of patience against a NaN "best"."""
        from repro.tasks import LinkPredictionMetrics
        ft = FineTuneConfig(epochs=4, batch_size=64, patience=2, seed=0)
        strat = build_finetuned_encoder("tgn", tiny_stream.num_nodes,
                                        tiny_cfg(), None, "none", ft)
        task = LinkPredictionTask(strat, split_downstream(tiny_stream), ft)
        aucs = iter([float("nan"), 0.6, 0.7, 0.8])
        monkeypatch.setattr(
            task, "_score_stream",
            lambda stream: LinkPredictionMetrics(next(aucs), 0.5, 1))
        history = task.train()
        assert [row["epoch"] for row in history] == [0, 1, 2, 3]
        assert np.isnan(history[0]["val_auc"])

    def test_learns_better_than_random(self, tiny_stream):
        """With enough epochs the task should clearly beat AUC 0.5."""
        ft = FineTuneConfig(epochs=5, batch_size=64, patience=3, seed=0)
        split = split_downstream(tiny_stream)
        strat = build_finetuned_encoder("tgn", tiny_stream.num_nodes,
                                        tiny_cfg(), None, "none", ft)
        metrics = LinkPredictionTask(strat, split, ft).run()
        assert metrics.auc > 0.55


class TestNodeClassificationTask:
    def test_requires_labels(self, tiny_stream):
        split = split_downstream(tiny_stream)  # unlabeled
        strat = build_finetuned_encoder("tgn", tiny_stream.num_nodes,
                                        tiny_cfg(), None, "none", tiny_ft())
        with pytest.raises(ValueError):
            NodeClassificationTask(strat, split, tiny_ft())

    def test_full_run(self, tiny_labeled_stream):
        split = split_downstream(tiny_labeled_stream)
        strat = build_finetuned_encoder("tgn", tiny_labeled_stream.num_nodes,
                                        tiny_cfg(), None, "none", tiny_ft())
        metrics = NodeClassificationTask(strat, split, tiny_ft()).run()
        assert np.isnan(metrics.auc) or 0.0 <= metrics.auc <= 1.0
        assert metrics.num_events == split.test.num_events
        assert 0.0 <= metrics.positive_rate <= 1.0

    def test_learns_labels_above_chance(self, tiny_labeled_stream):
        # Needs a little more capacity than the other smoke tests: the
        # dynamic label depends on recent-history patterns.
        cfg = CPDGConfig(eta=3, epsilon=3, depth=1, epochs=1, batch_size=64,
                         memory_dim=16, embed_dim=16, time_dim=4,
                         n_neighbors=5, num_checkpoints=3, seed=0)
        ft = FineTuneConfig(epochs=8, batch_size=64, patience=5, seed=0)
        split = split_downstream(tiny_labeled_stream)
        strat = build_finetuned_encoder("tgn", tiny_labeled_stream.num_nodes,
                                        cfg, None, "none", ft)
        metrics = NodeClassificationTask(strat, split, ft).run()
        if np.isfinite(metrics.auc):
            assert metrics.auc > 0.55
