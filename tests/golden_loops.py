"""Golden record of the fine-tuning and baseline pre-training loops.

PR 24 folded the two downstream ``train()`` loops into one
``fit(step_loss, validate)`` and the six baseline pre-training loops into
one; neither fold may move a number.  ``tests/fixtures/golden_loops.npz``
records what the parent commit (9bbcfa1) produced for the runs below —
per-epoch history rows and test metrics of both tasks under ``eie-gru``
and ``none``, and the loss list of every baseline — and
``tests/test_golden_loops.py`` compares bit for bit.

It was written by running this module against the parent's sources::

    PYTHONPATH=<parent checkout>/src python -m tests.golden_loops

When link prediction moved its scored negatives to a generator keyed by
``(fine-tune seed, segment)``, the four ``lp/{eie-gru,none}/{history,test}``
entries were re-recorded (validation and test AUC / AP move, the loss
columns do not); the other fourteen are still the parent's.

Everything here uses only API that exists at both commits.
"""

from __future__ import annotations

import os

import numpy as np

from repro.baselines import BASELINES, BaselinePretrainConfig
from repro.core import CPDGConfig, CPDGPreTrainer
from repro.datasets import (BipartiteInteractionGenerator, InteractionConfig,
                            LabeledConfig, LabeledInteractionGenerator,
                            split_downstream)
from repro.tasks import (FineTuneConfig, LinkPredictionTask,
                         NodeClassificationTask, build_finetuned_encoder)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "fixtures",
                           "golden_loops.npz")
STRATEGIES = ("eie-gru", "none")


def _model_config() -> CPDGConfig:
    return CPDGConfig(eta=3, epsilon=3, depth=1, epochs=1, batch_size=64,
                      memory_dim=8, embed_dim=8, time_dim=4, n_neighbors=3,
                      num_checkpoints=3, seed=0)


def _finetune_config() -> FineTuneConfig:
    # patience < epochs, so a run can stop early and restore its best epoch.
    return FineTuneConfig(epochs=4, batch_size=64, patience=2, eie_out_dim=4,
                          seed=0)


def _link_stream():
    config = InteractionConfig(num_users=20, num_items=15, num_events=200,
                               time_span=50.0, candidate_size=10)
    return BipartiteInteractionGenerator(config, seed=7).generate(name="tiny")


def _labeled_stream():
    base = InteractionConfig(num_users=25, num_items=12, num_events=300,
                             time_span=30.0, candidate_size=10)
    config = LabeledConfig(base=base, deviant_fraction=0.3,
                           threshold_mean=2.0, susceptible_fraction=0.6)
    return LabeledInteractionGenerator(config, seed=11).generate(
        name="tiny-labeled")


def _task_record(task_cls, stream, strategy: str, columns: tuple) -> dict:
    pretrain = None
    if strategy != "none":
        pretrain = CPDGPreTrainer.from_backbone(
            "tgn", stream.num_nodes, _model_config()).pretrain(stream)
    resolved = build_finetuned_encoder("tgn", stream.num_nodes,
                                       _model_config(), pretrain, strategy,
                                       _finetune_config())
    task = task_cls(resolved, split_downstream(stream), _finetune_config())
    history = task.train()
    metrics = task.evaluate()
    return {
        "history": np.array([[row[c] for c in columns] for row in history],
                            dtype=np.float64),
        "test": np.array([getattr(metrics, c) for c in
                          ("auc", "ap") if hasattr(metrics, c)],
                         dtype=np.float64),
    }


def build_golden() -> dict:
    """``{key: float64 array}`` for every recorded run."""
    out = {}
    for strategy in STRATEGIES:
        runs = {
            "lp": _task_record(LinkPredictionTask, _link_stream(), strategy,
                               ("epoch", "loss", "val_auc", "val_ap")),
            "nc": _task_record(NodeClassificationTask, _labeled_stream(),
                               strategy, ("epoch", "loss", "val_auc")),
        }
        for task, record in runs.items():
            for part, values in record.items():
                out[f"{task}/{strategy}/{part}"] = values
    stream = _link_stream()
    cfg = BaselinePretrainConfig(epochs=2, batch_size=64, seed=3)
    for name, spec in BASELINES.items():
        encoder = spec.build(stream.num_nodes, 8, np.random.default_rng(5),
                             n_neighbors=3, time_dim=4, edge_dim=0)
        out[f"baseline/{name}/losses"] = np.array(
            spec.pretrain(encoder, stream, cfg), dtype=np.float64)
    return out


if __name__ == "__main__":
    golden = build_golden()
    np.savez(GOLDEN_PATH, **golden)
    for key, values in golden.items():
        print(f"{key}: shape {values.shape}")
