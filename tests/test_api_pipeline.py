"""Integration tests for PretrainArtifact persistence and the Pipeline
facade (repro.api)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (ARTIFACT_FORMAT_VERSION, ArtifactError, ConfigError,
                       DataConfig, Pipeline, PretrainArtifact, RunConfig,
                       stream_fingerprint)
from repro.datasets import split_downstream
from repro.nn.serialization import save_arrays

TINY = dict(eta=3, epsilon=3, depth=1, epochs=1, batch_size=64,
            memory_dim=8, embed_dim=8, time_dim=4, n_neighbors=3,
            num_checkpoints=3, seed=0)


def tiny_config(**kwargs) -> RunConfig:
    payload = {
        "pretrain": dict(TINY),
        "finetune": {"epochs": 1, "batch_size": 64, "patience": 1,
                     "eie_out_dim": 4},
    }
    payload.update(kwargs)
    return RunConfig.from_dict(payload)


@pytest.fixture
def tiny_split(tiny_stream):
    pretrain, rest = tiny_stream.split_fraction([0.6, 0.4])
    return pretrain, split_downstream(rest)


class TestArtifact:
    def test_save_load_preserves_payload(self, tiny_stream, tmp_path):
        pipeline = Pipeline(tiny_config()).pretrain(tiny_stream)
        artifact = pipeline.artifact
        path = str(tmp_path / "artifact.npz")
        pipeline.save(path)
        loaded = PretrainArtifact.load(path)

        assert loaded.run_config == artifact.run_config
        assert loaded.num_nodes == artifact.num_nodes
        assert loaded.delta_scale == artifact.delta_scale
        assert loaded.dataset_fingerprint == stream_fingerprint(tiny_stream)
        assert loaded.format_version == ARTIFACT_FORMAT_VERSION
        np.testing.assert_array_equal(loaded.result.memory_state,
                                      artifact.result.memory_state)
        np.testing.assert_array_equal(loaded.result.last_update,
                                      artifact.result.last_update)
        assert set(loaded.result.encoder_state) == set(
            artifact.result.encoder_state)
        for key, array in artifact.result.encoder_state.items():
            np.testing.assert_array_equal(loaded.result.encoder_state[key],
                                          array, err_msg=key)
        assert len(loaded.result.checkpoints) == len(
            artifact.result.checkpoints)
        for left, right in zip(loaded.result.checkpoints.as_list(),
                               artifact.result.checkpoints.as_list()):
            np.testing.assert_array_equal(left, right)
        assert loaded.result.loss_history == [
            tuple(row) for row in artifact.result.loss_history]

    def test_loaded_artifact_finetunes_identically(self, tiny_stream,
                                                   tiny_split, tmp_path):
        """The acceptance-criterion equivalence, in-process."""
        pretrain, downstream = tiny_split
        config = tiny_config()
        pipeline = Pipeline(config).pretrain(pretrain)
        path = str(tmp_path / "artifact.npz")
        pipeline.save(path)

        in_memory = pipeline.finetune(split=downstream).evaluate()
        from_disk = (Pipeline.from_artifact(path)
                     .finetune(split=downstream)
                     .evaluate())
        assert from_disk.auc == in_memory.auc
        assert from_disk.ap == in_memory.ap
        assert from_disk.num_events == in_memory.num_events

    def test_saved_finetuned_model_scores_as_in_process(self, tmp_path):
        """Scored negatives are keyed by (fine-tune seed, segment), not by
        how many validation passes ran: a fine-tuned model evaluated from
        its saved v2 artifact scores exactly as it did in process."""
        config = tiny_config(
            strategy="eie-gru",
            data={"dataset": "amazon:beauty", "transfer": "time+field",
                  "num_users": 20, "num_items": 15, "events_main": 300,
                  "events_source": 300},
            finetune={"epochs": 3, "batch_size": 32, "patience": 3,
                      "eie_out_dim": 4})
        pipeline = Pipeline(config).pretrain().finetune()
        in_process = pipeline.evaluate()
        path = str(tmp_path / "finetuned.npz")
        pipeline.save(path)

        reloaded = Pipeline.from_artifact(path)
        from_disk = reloaded.evaluate()
        assert reloaded.train_seconds == 0.0    # the bundle, not a refit
        assert len(pipeline.history) > 1
        assert from_disk.auc == in_process.auc
        assert from_disk.ap == in_process.ap

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError):
            PretrainArtifact.load(str(tmp_path / "nope.npz"))

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = str(tmp_path / "foreign.npz")
        save_arrays(path, {"weights": np.zeros(3)})
        with pytest.raises(ArtifactError, match="not a CPDG"):
            PretrainArtifact.load(path)

    def test_load_rejects_future_format_version(self, tiny_stream, tmp_path):
        pipeline = Pipeline(tiny_config()).pretrain(tiny_stream)
        pipeline.artifact.format_version = ARTIFACT_FORMAT_VERSION + 1
        path = str(tmp_path / "future.npz")
        pipeline.save(path)
        with pytest.raises(ArtifactError, match="format version"):
            PretrainArtifact.load(path)

    def test_describe_summarises(self, tiny_stream):
        artifact = Pipeline(tiny_config()).pretrain(tiny_stream).artifact
        info = artifact.describe()
        assert info["backbone"] == "tgn"
        assert info["checkpoints"] == 3
        assert set(info["final_losses"]) == {"L_eta", "L_eps", "L_tlp"}


class TestPipeline:
    def test_fluent_chain_with_explicit_streams(self, tiny_split):
        pretrain, downstream = tiny_split
        metrics = (Pipeline(tiny_config(strategy="eie-attn"))
                   .pretrain(pretrain)
                   .finetune(split=downstream)
                   .evaluate())
        assert 0.0 <= metrics.auc <= 1.0

    def test_config_resolved_run(self):
        config = tiny_config(
            data={"dataset": "meituan", "num_users": 20, "num_items": 15,
                  "events_main": 200})
        metrics = Pipeline(config).run()
        assert np.isnan(metrics.auc) or 0.0 <= metrics.auc <= 1.0

    def test_strategy_none_needs_no_artifact(self, tiny_split):
        _, downstream = tiny_split
        metrics = (Pipeline(tiny_config())
                   .finetune(split=downstream, strategy="none")
                   .evaluate())
        assert 0.0 <= metrics.auc <= 1.0

    def test_finetune_without_artifact_raises(self, tiny_split):
        _, downstream = tiny_split
        with pytest.raises(ConfigError, match="artifact"):
            Pipeline(tiny_config()).finetune(split=downstream)

    def test_save_before_pretrain_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="pretrain"):
            Pipeline(tiny_config()).save(str(tmp_path / "a.npz"))

    def test_backbone_mismatch_rejected(self, tiny_stream, tiny_split):
        _, downstream = tiny_split
        artifact = Pipeline(tiny_config()).pretrain(tiny_stream).artifact
        pipeline = Pipeline(tiny_config(backbone="jodie"), artifact=artifact)
        with pytest.raises(ConfigError, match="backbone"):
            pipeline.finetune(split=downstream)

    def test_encoder_shape_mismatch_rejected(self, tiny_stream, tiny_split):
        _, downstream = tiny_split
        artifact = Pipeline(tiny_config()).pretrain(tiny_stream).artifact
        wider = tiny_config()
        wider.pretrain = wider.pretrain.with_overrides(memory_dim=16)
        with pytest.raises(ConfigError, match="memory_dim"):
            Pipeline(wider, artifact=artifact).finetune(split=downstream)

    def test_inductive_node_classification_rejected(self, tiny_labeled_stream):
        pretrain, rest = tiny_labeled_stream.split_fraction([0.6, 0.4])
        downstream = split_downstream(rest)
        config = tiny_config(task="node_classification", inductive=True)
        pipeline = (Pipeline(config)
                    .pretrain(pretrain)
                    .finetune(split=downstream))
        with pytest.raises(ConfigError, match="inductive"):
            pipeline.evaluate()

    def test_config_resolved_dataset_name_is_clean(self):
        config = tiny_config(
            data={"dataset": "meituan", "num_users": 20, "num_items": 15,
                  "events_main": 200})
        artifact = Pipeline(config).pretrain().artifact
        assert artifact.dataset_name == "meituan"

    def test_node_capacity_mismatch_rejected(self, tiny_stream, tiny_split):
        _, downstream = tiny_split
        artifact = Pipeline(tiny_config()).pretrain(tiny_stream).artifact
        pipeline = Pipeline(tiny_config(), artifact=artifact)
        with pytest.raises(ConfigError, match="nodes"):
            pipeline.finetune(split=downstream,
                              num_nodes=artifact.num_nodes + 10)

    def test_per_call_overrides_do_not_mutate_config(self, tiny_split):
        pretrain, downstream = tiny_split
        config = tiny_config()
        pipeline = Pipeline(config).pretrain(pretrain)
        pipeline.finetune(split=downstream, strategy="full",
                          task="link_prediction")
        assert config.strategy == "eie-gru"

    def test_node_classification_task(self, tiny_labeled_stream):
        pretrain, rest = tiny_labeled_stream.split_fraction([0.6, 0.4])
        downstream = split_downstream(rest)
        config = tiny_config(task="node_classification", backbone="jodie")
        metrics = (Pipeline(config)
                   .pretrain(pretrain)
                   .finetune(split=downstream)
                   .evaluate())
        assert np.isnan(metrics.auc) or 0.0 <= metrics.auc <= 1.0

    def test_history_populated_by_finetune(self, tiny_split):
        pretrain, downstream = tiny_split
        pipeline = (Pipeline(tiny_config())
                    .pretrain(pretrain)
                    .finetune(split=downstream))
        assert pipeline.history
        assert {"epoch", "loss", "val_auc"} <= set(pipeline.history[0])
