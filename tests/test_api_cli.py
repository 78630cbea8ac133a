"""CLI smoke tests: the three-stage pipeline driven through __main__."""

from __future__ import annotations

import io
import json
import os
import sys

import pytest

from repro.__main__ import main
from repro.api import Pipeline, RunConfig

TINY_RUN = {
    "backbone": "tgn",
    "task": "link_prediction",
    "strategy": "eie-gru",
    "data": {"dataset": "meituan", "num_users": 20, "num_items": 15,
             "events_main": 200},
    "pretrain": {"eta": 3, "epsilon": 3, "depth": 1, "epochs": 1,
                 "batch_size": 64, "memory_dim": 8, "embed_dim": 8,
                 "time_dim": 4, "n_neighbors": 3, "num_checkpoints": 3},
    "finetune": {"epochs": 1, "batch_size": 64, "patience": 1,
                 "eie_out_dim": 4},
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(TINY_RUN))
    return str(path)


class TestPipelineCommands:
    def test_pretrain_then_evaluate_round_trip(self, config_file, tmp_path,
                                               capsys):
        """The acceptance criterion: two-stage CLI == one-process Pipeline."""
        artifact = str(tmp_path / "artifact.npz")
        metrics_file = str(tmp_path / "metrics.json")

        assert main(["pretrain", "--config", config_file, "--out", artifact,
                     "--quiet"]) == 0
        assert "artifact written" in capsys.readouterr().out

        assert main(["evaluate", "--artifact", artifact,
                     "--task", "link_prediction", "--strategy", "eie-attn",
                     "--quiet", "--out", metrics_file]) == 0
        cli_metrics = json.loads(open(metrics_file).read())

        config = RunConfig.from_dict(TINY_RUN).with_updates(
            strategy="eie-attn")
        expected = Pipeline(config).pretrain().finetune().evaluate()
        assert cli_metrics == expected.as_row()

    def test_finetune_reports_history(self, config_file, tmp_path, capsys):
        artifact = str(tmp_path / "artifact.npz")
        history_file = str(tmp_path / "history.json")
        assert main(["pretrain", "--config", config_file, "--out", artifact,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["finetune", "--artifact", artifact, "--quiet",
                     "--out-history", history_file]) == 0
        out = capsys.readouterr().out
        assert "best val AUC" in out
        history = json.loads(open(history_file).read())
        assert history and "val_auc" in history[0]

    def test_set_overrides_reach_the_run(self, config_file, tmp_path,
                                         capsys):
        artifact = str(tmp_path / "artifact.npz")
        assert main(["pretrain", "--config", config_file, "--out", artifact,
                     "--quiet", "--set", "pretrain.num_checkpoints=2",
                     "--set", "backbone=jodie"]) == 0
        capsys.readouterr()
        from repro.api import PretrainArtifact
        loaded = PretrainArtifact.load(artifact)
        assert loaded.backbone == "jodie"
        assert len(loaded.result.checkpoints) == 2

    def test_dump_config_applies_overrides(self, capsys):
        assert main(["pretrain", "--dump-config",
                     "--set", "pretrain.beta=0.25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pretrain"]["beta"] == 0.25

    def test_unknown_override_fails_cleanly(self, capsys):
        assert main(["pretrain", "--dump-config",
                     "--set", "pretrain.bogus=1"]) == 2
        assert "unknown config key" in capsys.readouterr().err
        # A retired key loads from old files but not from the command line.
        for key, value in (("pretrain.fabric_ranges", "4"),
                           ("pretrain.memory_engine", "dense"),
                           ("finetune.compile_step", "false"),
                           ("pretrain.mmap_graph", "true"),
                           ("finetune.num_workers", "2"),
                           ("finetune.prefetch_batches", "8"),
                           ("pretrain.fabric", "127.0.0.1:9000"),
                           ("pretrain.shard_dir", "/tmp/run42"),
                           ("pretrain.fabric_lease_timeout", "30"),
                           ("obs.trace_buffer", "8")):
            assert main(["pretrain", "--dump-config",
                         "--set", f"{key}={value}"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err, err

    def test_zero_neighbors_exits_2(self, capsys):
        assert main(["pretrain", "--dump-config",
                     "--set", "pretrain.n_neighbors=0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_neighbors" in err, err

    def test_zero_tau_exits_2(self, capsys):
        assert main(["pretrain", "--dump-config",
                     "--set", "pretrain.tau=0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tau" in err, err

    def test_zero_grad_clip_exits_2(self, capsys):
        assert main(["pretrain", "--dump-config",
                     "--set", "pretrain.grad_clip=0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "grad_clip" in err, err

    def test_evaluate_without_artifact_needs_strategy_none(self, capsys):
        assert main(["evaluate", "--quiet"]) == 2
        assert "--artifact" in capsys.readouterr().err

    def test_evaluate_rejects_bogus_artifact(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.npz")
        assert main(["evaluate", "--artifact", missing, "--quiet"]) == 2
        assert "error" in capsys.readouterr().err


class TestLegacyCommands:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table7" in out and "figure6" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_profile_unknown_dataset(self, capsys):
        assert main(["profile", "imdb"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_closed_pipe_exits_quietly(self, monkeypatch, tmp_path):
        """``repro list | head -1``: the reader is gone, so ``main``
        returns 1 without a traceback and points stdout at devnull, where
        the flush at exit cannot raise again."""
        path = tmp_path / "stdout"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT)

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            assert main(["list"]) == 1
            os.write(fd, b"after the pipe closed")
        finally:
            os.close(fd)
        assert path.read_bytes() == b""
