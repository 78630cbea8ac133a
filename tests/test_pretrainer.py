"""Integration tests for the CPDG pre-training loop (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CPDGConfig, CPDGPreTrainer
from repro.dgnn import make_encoder

from . import parent_fixtures


def small_config(**kwargs):
    defaults = dict(eta=3, epsilon=3, depth=1, epochs=1, batch_size=64,
                    memory_dim=8, embed_dim=8, time_dim=4, n_neighbors=3,
                    num_checkpoints=3, seed=0)
    defaults.update(kwargs)
    return CPDGConfig(**defaults)


class TestPretrainer:
    def test_produces_complete_result(self, tiny_stream):
        trainer = CPDGPreTrainer.from_backbone("tgn", tiny_stream.num_nodes,
                                               small_config())
        result = trainer.pretrain(tiny_stream)
        assert len(result.checkpoints) == 3
        assert result.memory_state.shape == (tiny_stream.num_nodes, 8)
        assert result.last_update.shape == (tiny_stream.num_nodes,)
        assert len(result.loss_history) == int(np.ceil(200 / 64))
        assert set(result.encoder_state) == set(
            trainer.encoder.state_dict())

    def test_final_memory_shares_the_last_checkpoint(self, tiny_stream,
                                                     tmp_path):
        """One copy per EIE checkpoint: the final memory *is* ``S^L``,
        snapshots stay independent of each other and of the live memory,
        and the artifact round trip is bit-identical."""
        from repro.api import PretrainArtifact, RunConfig
        trainer = CPDGPreTrainer.from_backbone("tgn", tiny_stream.num_nodes,
                                               small_config())
        result = trainer.pretrain(tiny_stream)
        assert result.memory_state is result.checkpoints[-1]
        np.testing.assert_array_equal(result.memory_state,
                                      trainer.encoder.memory.state)
        assert not np.array_equal(result.checkpoints[0],
                                  result.checkpoints[-1])
        frozen = [snap.copy() for snap in result.checkpoints.as_list()]
        trainer.encoder.reset_memory()
        for before, after in zip(frozen, result.checkpoints.as_list()):
            np.testing.assert_array_equal(before, after)
        assert len(result.checkpoints.truncate(2)) == 2

        config = RunConfig()
        config.pretrain = trainer.config
        path = str(tmp_path / "artifact.npz")
        PretrainArtifact(result=result, run_config=config,
                         num_nodes=tiny_stream.num_nodes, delta_scale=1.0,
                         dataset_fingerprint="test",
                         dataset_name="tiny").save(path)
        loaded = PretrainArtifact.load(path).result
        np.testing.assert_array_equal(loaded.memory_state,
                                      result.memory_state)
        assert len(loaded.checkpoints) == len(result.checkpoints)
        for saved, original in zip(loaded.checkpoints.as_list(),
                                   result.checkpoints.as_list()):
            np.testing.assert_array_equal(saved, original)
            assert saved.dtype == original.dtype

    def test_loss_history_components_finite(self, tiny_stream):
        trainer = CPDGPreTrainer.from_backbone("jodie", tiny_stream.num_nodes,
                                               small_config(epochs=2))
        result = trainer.pretrain(tiny_stream)
        history = np.array(result.loss_history)
        assert np.isfinite(history).all()
        assert (history >= 0).all()

    def test_deterministic_given_seed(self, tiny_stream):
        r1 = CPDGPreTrainer.from_backbone(
            "tgn", tiny_stream.num_nodes, small_config()).pretrain(tiny_stream)
        r2 = CPDGPreTrainer.from_backbone(
            "tgn", tiny_stream.num_nodes, small_config()).pretrain(tiny_stream)
        np.testing.assert_allclose(r1.memory_state, r2.memory_state)
        for key in r1.encoder_state:
            np.testing.assert_allclose(r1.encoder_state[key],
                                       r2.encoder_state[key], err_msg=key)

    def test_different_seeds_differ(self, tiny_stream):
        r1 = CPDGPreTrainer.from_backbone(
            "tgn", tiny_stream.num_nodes, small_config(seed=0)).pretrain(tiny_stream)
        r2 = CPDGPreTrainer.from_backbone(
            "tgn", tiny_stream.num_nodes, small_config(seed=1)).pretrain(tiny_stream)
        assert np.abs(r1.memory_state - r2.memory_state).max() > 0

    def test_ablation_flags_zero_out_losses(self, tiny_stream):
        cfg = small_config(use_temporal_contrast=False,
                           use_structural_contrast=False)
        trainer = CPDGPreTrainer.from_backbone("tgn", tiny_stream.num_nodes, cfg)
        result = trainer.pretrain(tiny_stream)
        history = np.array(result.loss_history)
        assert (history[:, 0] == 0).all()   # L_eta disabled
        assert (history[:, 1] == 0).all()   # L_eps disabled
        assert (history[:, 2] > 0).all()    # pretext always on

    def test_beta_extremes_skip_opposite_contrast(self, tiny_stream):
        result = CPDGPreTrainer.from_backbone(
            "tgn", tiny_stream.num_nodes,
            small_config(beta=1.0)).pretrain(tiny_stream)
        history = np.array(result.loss_history)
        assert (history[:, 0] == 0).all()   # beta=1 -> no temporal term

    def test_pretraining_moves_parameters(self, tiny_stream):
        cfg = small_config(epochs=2)
        trainer = CPDGPreTrainer.from_backbone("tgn", tiny_stream.num_nodes, cfg)
        before = {k: v.copy() for k, v in trainer.encoder.state_dict().items()}
        trainer.pretrain(tiny_stream)
        after = trainer.encoder.state_dict()
        moved = any(np.abs(before[k] - after[k]).max() > 1e-12 for k in before)
        assert moved

    def test_memory_nonzero_for_active_nodes(self, tiny_stream):
        trainer = CPDGPreTrainer.from_backbone("tgn", tiny_stream.num_nodes,
                                               small_config())
        result = trainer.pretrain(tiny_stream)
        active = tiny_stream.active_nodes()
        norms = np.abs(result.memory_state).sum(axis=1)
        # All but the final batch's nodes have flushed messages; require
        # that a clear majority of active nodes hold state.
        assert (norms[active] > 0).mean() > 0.5

    def test_checkpoints_evolve_over_training(self, tiny_stream):
        cfg = small_config(epochs=3, num_checkpoints=3)
        trainer = CPDGPreTrainer.from_backbone("tgn", tiny_stream.num_nodes, cfg)
        result = trainer.pretrain(tiny_stream)
        first, last = result.checkpoints[0], result.checkpoints[-1]
        assert np.abs(first - last).max() > 0

    def test_pretext_loss_decreases_over_epochs(self, tiny_stream):
        cfg = small_config(epochs=5, learning_rate=3e-3)
        trainer = CPDGPreTrainer.from_backbone("tgn", tiny_stream.num_nodes, cfg)
        result = trainer.pretrain(tiny_stream)
        history = np.array(result.loss_history)
        batches = len(history) // 5
        first_epoch = history[:batches, 2].mean()
        last_epoch = history[-batches:, 2].mean()
        assert last_epoch < first_epoch

    def test_custom_encoder_accepted(self, tiny_stream, rng):
        encoder = make_encoder("dyrep", tiny_stream.num_nodes, rng,
                               memory_dim=8, embed_dim=8, time_dim=4,
                               edge_dim=4, n_neighbors=3)
        trainer = CPDGPreTrainer(encoder, small_config())
        result = trainer.pretrain(tiny_stream)
        assert result.memory_state.shape == (tiny_stream.num_nodes, 8)

    def test_invalid_config_rejected(self, tiny_stream, rng):
        encoder = make_encoder("tgn", tiny_stream.num_nodes, rng)
        with pytest.raises(ValueError):
            CPDGPreTrainer(encoder, CPDGConfig(beta=2.0))


class TestPrecisionDrift:
    """float32 against float64, and both against the parent commit's
    histories of the same seeded 12-step run (``tests/fixtures``)."""

    # Measured end-of-run |float64 - float32| per loss on this run:
    # 9.3e-8 / 2.9e-9 / 9.1e-8 (no more than 2.0e-7 at any step).
    END_OF_RUN_GAP = 5e-7

    @pytest.fixture(scope="class")
    def histories(self):
        return {dtype: np.asarray(
            parent_fixtures.tiny_pretrain(dtype).loss_history)
            for dtype in ("float32", "float64")}

    def test_float32_tracks_float64_to_the_pinned_bound(self, histories):
        gap = np.abs(histories["float64"][-1] - histories["float32"][-1])
        assert gap.max() <= self.END_OF_RUN_GAP, gap

    def test_parent_loss_history_is_reproduced(self, histories):
        with np.load(parent_fixtures.EXPECTED_PATH) as frozen:
            for dtype, key in (("float32", "loss_history_f32"),
                               ("float64", "loss_history_f64")):
                np.testing.assert_allclose(histories[dtype], frozen[key],
                                           rtol=0, atol=1e-6)
