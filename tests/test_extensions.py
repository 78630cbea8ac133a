"""Tests for ranking metrics, readout/objective variants and the CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (CPDGConfig, CPDGPreTrainer, contrast_loss_from_pairs,
                        subgraph_readout)
from repro.datasets import split_downstream
from repro.nn import Tensor
from repro.stream import ProducerSpec, SamplingContext, produce_batch
from repro.tasks import (FineTuneConfig, LinkPredictionTask,
                         build_finetuned_encoder,
                         hits_at_k, mean_reciprocal_rank, reciprocal_ranks,
                         summarize_ranks)


class TestRankingMetrics:
    def test_perfect_ranking(self):
        pos = np.array([0.9, 0.8])
        neg = np.array([[0.1, 0.2], [0.3, 0.1]])
        assert mean_reciprocal_rank(pos, neg) == 1.0
        assert hits_at_k(pos, neg, 1) == 1.0

    def test_worst_ranking(self):
        pos = np.array([0.1])
        neg = np.array([[0.5, 0.6, 0.7]])
        np.testing.assert_allclose(reciprocal_ranks(pos, neg), [0.25])
        assert hits_at_k(pos, neg, 3) == 0.0
        assert hits_at_k(pos, neg, 4) == 1.0

    def test_ties_count_against_positive(self):
        pos = np.array([0.5])
        neg = np.array([[0.5, 0.1]])
        np.testing.assert_allclose(reciprocal_ranks(pos, neg), [0.5])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            reciprocal_ranks(np.ones(3), np.ones(3))

    def test_summary_bundle(self):
        pos = np.array([0.9, 0.05])
        neg = np.tile(np.linspace(0.1, 0.8, 10), (2, 1))
        summary = summarize_ranks(pos, neg)
        assert summary.num_queries == 2
        assert summary.mrr == pytest.approx((1.0 + 1 / 11) / 2)
        assert summary.hits_at_1 == 0.5
        row = summary.as_row()
        assert {"MRR", "Hits@1", "Hits@5", "Hits@10", "n"} == set(row)

    def test_task_ranking_evaluation(self, tiny_stream):
        cfg = CPDGConfig(eta=3, epsilon=3, depth=1, epochs=1, batch_size=64,
                         memory_dim=8, embed_dim=8, time_dim=4,
                         n_neighbors=3, num_checkpoints=2, seed=0)
        ft = FineTuneConfig(epochs=1, batch_size=64, patience=1, seed=0)
        strat = build_finetuned_encoder("tgn", tiny_stream.num_nodes, cfg,
                                        None, "none", ft)
        task = LinkPredictionTask(strat, split_downstream(tiny_stream), ft)
        task.train()
        summary = task.evaluate_ranking(num_candidates=5)
        assert 0.0 < summary.mrr <= 1.0
        assert summary.num_queries == task.split.test.num_events


class TestReadoutVariants:
    def test_max_readout(self):
        memory = Tensor(np.array([[1.0, 5.0], [3.0, 2.0], [0.0, 0.0]]))
        out = subgraph_readout(memory, [np.array([0, 1])], mode="max")
        np.testing.assert_allclose(out.data, [[3.0, 5.0]])

    def test_sum_readout(self):
        memory = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
        out = subgraph_readout(memory, [np.array([0, 1])], mode="sum")
        np.testing.assert_allclose(out.data, [[4.0, 7.0]])

    def test_max_readout_empty_subgraph(self):
        memory = Tensor(np.ones((3, 2)))
        out = subgraph_readout(memory, [np.array([], dtype=int),
                                        np.array([1])], mode="max")
        np.testing.assert_allclose(out.data[0], [0.0, 0.0])
        np.testing.assert_allclose(out.data[1], [1.0, 1.0])

    def test_unknown_readout(self):
        with pytest.raises(ValueError):
            subgraph_readout(Tensor(np.ones((2, 2))), [np.array([0])],
                             mode="median")

    def test_readout_gradients(self, rng):
        for mode in ("max", "sum"):
            memory = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            out = subgraph_readout(memory, [np.array([0, 2]),
                                            np.array([1])], mode=mode)
            (out ** 2.0).sum().backward()
            assert memory.grad is not None


class TestObjectiveVariants:
    @staticmethod
    def first_batch(stream, **spec):
        ctx = SamplingContext(ProducerSpec(batch_size=6, seed=0, eta=3,
                                           epsilon=3, depth=1, **spec),
                              stream=stream)
        return produce_batch(ctx, next(iter(ctx.spec.make_plan(
            stream.num_events))))

    def test_infonce_contrast_runs(self, tiny_stream, rng):
        prepared = self.first_batch(tiny_stream, sample_temporal=True)
        memory = Tensor(rng.normal(size=(tiny_stream.num_nodes, 8)),
                        requires_grad=True)
        z = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
        loss = contrast_loss_from_pairs(z, memory, prepared.temporal_pos,
                                        prepared.temporal_neg,
                                        objective="infonce")
        loss.backward()
        assert np.isfinite(loss.item())
        assert z.grad is not None

    def test_unknown_objective_raises(self, tiny_stream, rng):
        prepared = self.first_batch(tiny_stream, sample_structural=True)
        memory = Tensor(rng.normal(size=(tiny_stream.num_nodes, 8)))
        z = Tensor(rng.normal(size=(6, 8)))
        with pytest.raises(ValueError, match="margin-of-error"):
            contrast_loss_from_pairs(z, memory, prepared.structural_pos,
                                     prepared.structural_neg,
                                     objective="margin-of-error")

    def test_pretrainer_with_infonce_and_max_readout(self, tiny_stream):
        cfg = CPDGConfig(eta=3, epsilon=3, depth=1, epochs=1, batch_size=64,
                         memory_dim=8, embed_dim=8, time_dim=4,
                         n_neighbors=3, num_checkpoints=2, seed=0,
                         objective="infonce", readout="max")
        trainer = CPDGPreTrainer.from_backbone("tgn", tiny_stream.num_nodes,
                                               cfg)
        result = trainer.pretrain(tiny_stream)
        history = np.array(result.loss_history)
        assert np.isfinite(history).all()

    def test_config_validates_objective(self):
        with pytest.raises(ValueError):
            CPDGConfig(objective="nce2").validate()
        with pytest.raises(ValueError):
            CPDGConfig(readout="median").validate()


class TestCLI:
    def test_list_command(self, capsys):
        from repro.__main__ import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table7" in out and "ablations" in out

    def test_profile_command(self, capsys):
        from repro.__main__ import main
        assert main(["profile", "wikipedia"]) == 0
        out = capsys.readouterr().out
        assert "burstiness" in out

    def test_profile_unknown_dataset(self, capsys):
        from repro.__main__ import main
        assert main(["profile", "nope"]) == 2

    def test_run_command_writes_file(self, tmp_path, capsys):
        from repro.__main__ import main
        out_path = str(tmp_path / "table.txt")
        code = main(["run", "table5_6", "--scale", "tiny", "--quiet",
                     "--out", out_path])
        assert code == 0
        with open(out_path) as fh:
            assert "dataset statistics" in fh.read()
