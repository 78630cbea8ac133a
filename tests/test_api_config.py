"""Unit tests for the serialisable run configuration (repro.api.config)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (ConfigError, DataConfig, PretrainArtifact, RunConfig,
                       dataset_names, normalize_task, parse_override,
                       parse_set_args, resolve_data)
from repro.core import CPDGConfig

from . import parent_fixtures as parent


class TestRoundTrip:
    def test_dict_round_trip_defaults(self):
        config = RunConfig()
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_dict_round_trip_customised(self):
        config = RunConfig(
            backbone="jodie", task="node_classification", strategy="eie-attn",
            inductive=True,
            data=DataConfig(dataset="mooc", num_users=30, seed=5),
        )
        config = config.with_overrides({"pretrain.beta": 0.25,
                                        "finetune.epochs": 7})
        clone = RunConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.pretrain.beta == 0.25
        assert clone.finetune.epochs == 7

    def test_json_file_round_trip(self, tmp_path):
        config = RunConfig(strategy="full",
                           data=DataConfig(dataset="amazon:luxury",
                                           transfer="time+field"))
        path = tmp_path / "run.json"
        config.to_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["strategy"] == "full"
        assert RunConfig.from_json(str(path)) == config
        # Files written before the kernel-backend option was retired carry
        # it in both stage sections; they load as if it were absent.
        payload["pretrain"]["backend"] = "numpy"
        payload["finetune"]["backend"] = "numpy"
        # Likewise the range-shard count of the deleted second CSR layout
        # and the selector of the deleted dense memory engine.
        payload["pretrain"]["fabric_ranges"] = 4
        payload["pretrain"]["memory_engine"] = "dense"
        # And the trainer-side mapped CSR and the fine-tune workers.
        payload["pretrain"]["mmap_graph"] = True
        # And the deleted TCP fabric's address, shard directory and lease
        # timeout.
        payload["pretrain"]["fabric"] = "127.0.0.1:9000"
        payload["pretrain"]["shard_dir"] = "/tmp/run42"
        payload["pretrain"]["fabric_lease_timeout"] = 30.0
        payload["finetune"]["num_workers"] = 2
        payload["finetune"]["prefetch_batches"] = 8
        # And the span buffer's size, now a constant of repro.obs.
        payload["obs"]["trace_buffer"] = 8
        path.write_text(json.dumps(payload))
        assert RunConfig.from_json(str(path)) == config

    def test_files_that_switched_finetune_replay_load(self, tmp_path):
        """Fine-tuning lost its compiled replay (it always runs eager);
        run configs and artifacts that set the switch still load."""
        payload = RunConfig().to_dict()
        assert "compile_step" not in payload["finetune"]
        payload["finetune"]["compile_step"] = False
        assert RunConfig.from_dict(payload) == RunConfig()
        with np.load(parent.ARTIFACT_PATH) as frozen:
            meta = json.loads(str(frozen["__meta__"]))
        assert meta["run_config"]["finetune"]["compile_step"] is True
        assert meta["run_config"]["finetune"]["num_workers"] == 0
        assert meta["run_config"]["pretrain"]["mmap_graph"] is False
        assert meta["run_config"]["obs"]["trace_buffer"] == 4096
        artifact = PretrainArtifact.load(parent.ARTIFACT_PATH)
        assert not hasattr(artifact.run_config.finetune, "compile_step")
        assert not hasattr(artifact.run_config.finetune, "num_workers")
        assert not hasattr(artifact.run_config.pretrain, "mmap_graph")
        assert not hasattr(artifact.run_config.obs, "trace_buffer")

    def test_artifact_that_selected_the_dense_engine_loads_and_serves(
            self, tmp_path):
        """The engines were bit-identical, so a file that asked for the
        deleted one serves the rows the frozen artifact always served."""
        with np.load(parent.ARTIFACT_PATH) as frozen:
            arrays = {key: frozen[key] for key in frozen.files}
        meta = json.loads(str(arrays["__meta__"]))
        assert meta["run_config"]["pretrain"]["memory_engine"] == "sparse"
        meta["run_config"]["pretrain"]["memory_engine"] = "dense"
        arrays["__meta__"] = np.array(json.dumps(meta))
        path = tmp_path / "dense.npz"
        np.savez(path, **arrays)
        artifact = PretrainArtifact.load(str(path))
        assert not hasattr(artifact.run_config.pretrain, "memory_engine")
        with np.load(parent.EXPECTED_PATH) as frozen:
            expected = frozen["embeddings"]
        np.testing.assert_allclose(parent.serve_embeddings(artifact),
                                   expected, rtol=0, atol=1e-6)

    def test_from_json_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            RunConfig.from_json(str(path))

    def test_partial_dict_fills_defaults(self):
        config = RunConfig.from_dict({"backbone": "dyrep",
                                      "pretrain": {"beta": 0.9}})
        assert config.backbone == "dyrep"
        assert config.pretrain.beta == 0.9
        assert config.finetune == RunConfig().finetune


class TestUnknownKeyRejection:
    def test_top_level_unknown_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            RunConfig.from_dict({"bogus": 1})

    def test_nested_unknown_key(self):
        with pytest.raises(ConfigError, match="pretrain"):
            RunConfig.from_dict({"pretrain": {"learning_rate": 0.1,
                                              "bogus": 1}})

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            RunConfig.from_dict({"finetune": 3})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"backbone": "transformer"})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"task": "regression"})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"strategy": "eie-lstm"})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"pretrain": {"beta": 2.0}})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"data": {"train_fraction": 0.9}})

    def test_zero_neighbors_rejected_by_name(self):
        """``n_neighbors=0`` used to validate and then fail deep inside
        TGN pre-training with an untyped ``IndexError``."""
        for bad in (0, -1):
            with pytest.raises(ValueError, match="n_neighbors"):
                CPDGConfig(n_neighbors=bad).validate()
        CPDGConfig(n_neighbors=1).validate()

    # tau used to validate whatever it was: a negative one swapped the
    # Eq. 7/8 views, zero divided by zero, nan ran silently.
    def test_negative_tau_rejected_by_name(self):
        with pytest.raises(ValueError, match="tau"):
            CPDGConfig(tau=-0.2).validate()

    def test_zero_tau_rejected_by_name(self):
        with pytest.raises(ValueError, match="tau"):
            CPDGConfig(tau=0.0).validate()

    def test_nan_tau_rejected_by_name(self):
        with pytest.raises(ValueError, match="tau"):
            CPDGConfig(tau=float("nan")).validate()

    def test_infinite_tau_rejected_by_name(self):
        with pytest.raises(ValueError, match="tau"):
            CPDGConfig(tau=float("inf")).validate()

    def test_non_numeric_tau_rejected_by_name(self):
        with pytest.raises(ValueError, match="tau"):
            CPDGConfig(tau="0.2").validate()

    def test_large_finite_tau_stays_valid(self):
        """The ablations' near-uniform arm."""
        CPDGConfig(tau=1e6).validate()

    # A nan learning rate validated and trained to nan parameters; a zero
    # clip multiplied every gradient by 0 and a nan clip disabled it.
    def test_nan_learning_rate_rejected_by_name(self):
        with pytest.raises(ValueError, match="learning_rate"):
            CPDGConfig(learning_rate=float("nan")).validate()

    def test_zero_grad_clip_rejected_by_name(self):
        with pytest.raises(ValueError, match="grad_clip"):
            CPDGConfig(grad_clip=0.0).validate()

    def test_nan_grad_clip_rejected_by_name(self):
        with pytest.raises(ValueError, match="grad_clip"):
            CPDGConfig(grad_clip=float("nan")).validate()

    def test_nan_finetune_learning_rate_rejected_by_name(self):
        config = RunConfig()
        config.finetune.learning_rate = float("nan")
        with pytest.raises(ConfigError, match="finetune: learning_rate"):
            config.validate()

    def test_zero_finetune_grad_clip_rejected_by_name(self):
        config = RunConfig()
        config.finetune.grad_clip = 0.0
        with pytest.raises(ConfigError, match="finetune: grad_clip"):
            config.validate()

    def test_nan_finetune_grad_clip_rejected_by_name(self):
        with pytest.raises(ConfigError, match="finetune: grad_clip"):
            RunConfig().with_overrides({"finetune.grad_clip": float("nan")})

    def test_subgraph_cache_is_off_by_default(self):
        assert CPDGConfig().precompute_samplers is False


class TestOverrides:
    def test_dotted_override_types(self):
        config = RunConfig().with_overrides({
            "pretrain.beta": 0.3,
            "finetune.epochs": 9,
            "data.dataset": "wikipedia",
            "inductive": True,
        })
        assert config.pretrain.beta == 0.3
        assert config.finetune.epochs == 9
        assert config.data.dataset == "wikipedia"
        assert config.inductive is True

    def test_override_is_functional(self):
        base = RunConfig()
        base.with_overrides({"pretrain.beta": 0.1})
        assert base.pretrain.beta == RunConfig().pretrain.beta

    def test_unknown_dotted_key_rejected(self):
        with pytest.raises(ConfigError, match="pretrain.bogus"):
            RunConfig().with_overrides({"pretrain.bogus": 1})
        with pytest.raises(ConfigError, match="nonsection"):
            RunConfig().with_overrides({"nonsection.beta": 1})
        # Retired keys are tolerated in files, not on the command line.
        for key in ("nn.backend", "pretrain.backend", "finetune.backend",
                    "pretrain.fabric_ranges", "pretrain.memory_engine",
                    "finetune.compile_step", "pretrain.mmap_graph",
                    "finetune.num_workers", "finetune.prefetch_batches",
                    "pretrain.fabric", "pretrain.shard_dir",
                    "pretrain.fabric_lease_timeout"):
            with pytest.raises(ConfigError, match="unknown config key"):
                RunConfig().with_overrides({key: "numpy"})

    def test_nn_compile_switches_the_pretraining_step(self):
        config = RunConfig().with_overrides({"nn.compile": False})
        assert config.pretrain.compile_step is False
        assert config.finetune == RunConfig().finetune

    def test_section_as_leaf_rejected(self):
        with pytest.raises(ConfigError, match="section"):
            RunConfig().with_overrides({"pretrain": 3})

    def test_parse_override_value_parsing(self):
        assert parse_override("pretrain.beta=0.3") == ("pretrain.beta", 0.3)
        assert parse_override("finetune.epochs=4") == ("finetune.epochs", 4)
        assert parse_override("inductive=true") == ("inductive", True)
        assert parse_override("data.seed=null") == ("data.seed", None)
        assert parse_override("data.dataset=mooc") == ("data.dataset", "mooc")

    def test_parse_override_requires_equals(self):
        with pytest.raises(ConfigError):
            parse_override("pretrain.beta")
        with pytest.raises(ConfigError):
            parse_override("=3")

    def test_parse_set_args_folds_repeats(self):
        overrides = parse_set_args(["pretrain.beta=0.1", "pretrain.beta=0.7",
                                    "backbone=jodie"])
        assert overrides == {"pretrain.beta": 0.7, "backbone": "jodie"}


class TestTasksAndData:
    def test_task_aliases(self):
        assert normalize_task("link") == "link_prediction"
        assert normalize_task("node") == "node_classification"
        assert normalize_task("link_prediction") == "link_prediction"
        with pytest.raises(ConfigError):
            normalize_task("ranking?")

    def test_dataset_names_cover_registry(self):
        names = dataset_names()
        assert "meituan" in names and "mooc" in names
        assert "amazon:beauty" in names and "gowalla:food" in names

    def test_resolve_fraction_split(self):
        data = DataConfig(dataset="meituan", num_users=20, num_items=15,
                          events_main=200, pretrain_fraction=0.5)
        resolved = resolve_data(data)
        total = (resolved.pretrain.num_events
                 + resolved.downstream.train.num_events
                 + resolved.downstream.val.num_events
                 + resolved.downstream.test.num_events)
        assert resolved.pretrain.num_events == pytest.approx(total / 2, abs=1)
        assert resolved.num_nodes == resolved.pretrain.num_nodes

    def test_resolve_transfer_split(self):
        data = DataConfig(dataset="amazon:beauty", transfer="time+field",
                          num_users=25, num_items=16, events_main=240,
                          events_source=300)
        resolved = resolve_data(data)
        # time+field pre-trains on the source field's early history.
        assert "arts" in resolved.pretrain.name
        assert resolved.downstream.test.num_events > 0

    def test_resolve_unknown_dataset(self):
        with pytest.raises(ConfigError, match="unknown dataset"):
            resolve_data(DataConfig(dataset="imdb"))
        with pytest.raises(ConfigError, match="universe"):
            resolve_data(DataConfig(dataset="netflix:horror"))
