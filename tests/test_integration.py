"""Cross-module integration tests: full pipelines, persistence, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CPDGConfig, CPDGPreTrainer, MemoryCheckpoints
from repro.datasets import (SMALL, amazon_universe, make_transfer_split,
                            split_downstream)
from repro.graph import EventStream, load_npz, save_npz
from repro.nn import load_arrays, save_arrays
from repro.tasks import (FineTuneConfig, LinkPredictionTask,
                         build_finetuned_encoder)


def tiny_cfg(**kwargs):
    defaults = dict(eta=3, epsilon=3, depth=1, epochs=1, batch_size=64,
                    memory_dim=8, embed_dim=8, time_dim=4, n_neighbors=3,
                    num_checkpoints=3, seed=0)
    defaults.update(kwargs)
    return CPDGConfig(**defaults)


class TestPretrainPersistenceRoundtrip:
    """Pre-train → save to disk → load → fine-tune must equal the direct
    path exactly (same arrays, same downstream metrics)."""

    def test_full_roundtrip(self, tiny_stream, tmp_path):
        cfg = tiny_cfg()
        trainer = CPDGPreTrainer.from_backbone("tgn", tiny_stream.num_nodes,
                                               cfg)
        result = trainer.pretrain(tiny_stream)

        # Persist every transfer artifact.
        save_arrays(str(tmp_path / "encoder.npz"), trainer.encoder.state_dict())
        save_arrays(str(tmp_path / "memory.npz"), {
            "state": result.memory_state,
            "last_update": result.last_update,
            **{f"ckpt_{i}": result.checkpoints[i]
               for i in range(len(result.checkpoints))},
        })

        # Rebuild from disk.
        arrays = load_arrays(str(tmp_path / "memory.npz"))
        checkpoints = MemoryCheckpoints()
        for i in range(len(result.checkpoints)):
            checkpoints.add(arrays[f"ckpt_{i}"])
        from repro.core.pretrainer import PretrainResult
        restored = PretrainResult(
            encoder_state=result.encoder_state,
            memory_state=arrays["state"],
            last_update=arrays["last_update"],
            checkpoints=checkpoints,
        )

        ft = FineTuneConfig(epochs=1, batch_size=64, patience=1, seed=0)
        split = split_downstream(tiny_stream)
        direct = build_finetuned_encoder("tgn", tiny_stream.num_nodes, cfg,
                                         result, "eie-gru", ft)
        from_disk = build_finetuned_encoder("tgn", tiny_stream.num_nodes, cfg,
                                            restored, "eie-gru", ft)
        m1 = LinkPredictionTask(direct, split, ft).run()
        m2 = LinkPredictionTask(from_disk, split, ft).run()
        assert m1.auc == pytest.approx(m2.auc, abs=1e-12)
        assert m1.ap == pytest.approx(m2.ap, abs=1e-12)

    def test_stream_roundtrip_preserves_pipeline(self, tiny_stream, tmp_path):
        """Pre-training on a disk-roundtripped stream is identical."""
        path = str(tmp_path / "stream.npz")
        save_npz(tiny_stream, path)
        reloaded = load_npz(path)
        r1 = CPDGPreTrainer.from_backbone(
            "jodie", tiny_stream.num_nodes, tiny_cfg()).pretrain(tiny_stream)
        r2 = CPDGPreTrainer.from_backbone(
            "jodie", reloaded.num_nodes, tiny_cfg()).pretrain(reloaded)
        np.testing.assert_allclose(r1.memory_state, r2.memory_state)


class TestTransferPipeline:
    def test_field_transfer_carries_user_memory(self):
        """After pre-training on the source field, shared users hold
        non-zero memory that field transfer carries downstream."""
        universe = amazon_universe(SMALL)
        split = make_transfer_split("field", universe.stream("beauty"),
                                    universe.stream("arts"), 60.0)
        cfg = tiny_cfg()
        trainer = CPDGPreTrainer.from_backbone("tgn", universe.num_nodes, cfg)
        result = trainer.pretrain(split.pretrain)
        user_rows = result.memory_state[:universe.num_users]
        assert (np.abs(user_rows).sum(axis=1) > 0).any()
        # Beauty item rows were never touched during arts pre-training.
        beauty_offset = universe.item_offset("beauty")
        beauty_rows = result.memory_state[
            beauty_offset:beauty_offset + universe.items_per_field]
        assert np.abs(beauty_rows).sum() == 0.0

    def test_all_transfer_settings_complete(self):
        universe = amazon_universe(SMALL)
        cfg = tiny_cfg()
        ft = FineTuneConfig(epochs=1, batch_size=64, patience=1, seed=0)
        for setting in ("time", "field", "time+field"):
            split = make_transfer_split(setting, universe.stream("beauty"),
                                        universe.stream("arts"), 60.0)
            trainer = CPDGPreTrainer.from_backbone("jodie",
                                                   universe.num_nodes, cfg)
            result = trainer.pretrain(split.pretrain)
            strat = build_finetuned_encoder("jodie", universe.num_nodes, cfg,
                                            result, "full", ft)
            metrics = LinkPredictionTask(strat, split.downstream, ft).run()
            assert np.isfinite(metrics.auc), setting


class TestDeterminism:
    def test_experiment_cells_reproducible(self):
        """The same seed must give bitwise-identical trial metrics, for the
        control and for a pre-trained arm (each call pre-trains afresh)."""
        from repro.experiments.common import SCALES, Arm, transfer_trial
        universe = amazon_universe(SMALL)
        split = make_transfer_split("time", universe.stream("beauty"),
                                    universe.stream("arts"), 60.0)
        exp = SCALES["tiny"]
        a, b = (transfer_trial(exp, 0, split.pretrain, split.downstream,
                               [Arm("cpdg")], backbone="tgn")
                for _ in range(2))
        assert list(a) == list(b) == ["none", "cpdg"]
        for label in a:
            assert a[label].auc == b[label].auc
            assert a[label].ap == b[label].ap


class TestFailureInjection:
    def test_encoder_handles_nodes_with_no_history(self, tiny_stream, rng):
        from repro.dgnn import make_encoder
        enc = make_encoder("tgn", tiny_stream.num_nodes + 5, rng,
                           memory_dim=8, embed_dim=8, time_dim=4, edge_dim=4,
                           n_neighbors=3)
        padded = EventStream(src=tiny_stream.src, dst=tiny_stream.dst,
                             timestamps=tiny_stream.timestamps,
                             num_nodes=tiny_stream.num_nodes + 5,
                             edge_feats=tiny_stream.edge_feats)
        enc.attach(padded)
        ghost = np.array([tiny_stream.num_nodes + 2])
        z = enc.compute_embedding(ghost, np.array([25.0]))
        assert np.isfinite(z.data).all()

    def test_pretrainer_on_minimal_stream(self):
        """Two events are enough for a degenerate but crash-free run."""
        stream = EventStream(src=[0, 1], dst=[2, 2],
                             timestamps=[1.0, 2.0], num_nodes=3,
                             edge_feats=np.zeros((2, 4)))
        trainer = CPDGPreTrainer.from_backbone("tgn", 3, tiny_cfg(batch_size=1))
        result = trainer.pretrain(stream)
        assert np.isfinite(np.array(result.loss_history)).all()

    def test_task_with_constant_timestamps(self, rng):
        """All events at one instant: strictly-before queries are empty,
        the pipeline must stay finite."""
        n = 60
        stream = EventStream(src=rng.integers(0, 5, n),
                             dst=rng.integers(5, 10, n),
                             timestamps=np.full(n, 7.0), num_nodes=10,
                             edge_feats=rng.normal(size=(n, 4)))
        cfg = tiny_cfg()
        ft = FineTuneConfig(epochs=1, batch_size=32, patience=1, seed=0)
        strat = build_finetuned_encoder("tgn", 10, cfg, None, "none", ft)
        metrics = LinkPredictionTask(strat, split_downstream(stream), ft).run()
        assert np.isnan(metrics.auc) or 0.0 <= metrics.auc <= 1.0

    def test_eie_single_checkpoint(self, tiny_stream):
        cfg = tiny_cfg(num_checkpoints=1)
        trainer = CPDGPreTrainer.from_backbone("tgn", tiny_stream.num_nodes,
                                               cfg)
        result = trainer.pretrain(tiny_stream)
        assert len(result.checkpoints) == 1
        ft = FineTuneConfig(epochs=1, batch_size=64, patience=1, seed=0)
        strat = build_finetuned_encoder("tgn", tiny_stream.num_nodes, cfg,
                                        result, "eie-gru", ft)
        metrics = LinkPredictionTask(strat, split_downstream(tiny_stream),
                                     ft).run()
        assert np.isfinite(metrics.auc)
