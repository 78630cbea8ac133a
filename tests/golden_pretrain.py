"""Golden record of CPDG pre-training (paper Algorithm 1), serial production.

Message time gaps (``delta_t = t - last_update``) used to be staged by
the batch producer from the CSR and shipped with every batch; the
trainer now gathers them from its own ``Memory.last_update``, as
fine-tuning and serve ingest do.  That move may not change a number.
``tests/fixtures/golden_pretrain.npz`` records, for the tgn, jodie and
dyrep backbones (float32, two epochs, both contrasts on, compiled step
on, in-process production), the loss history, final memory,
``last_update``, every encoder parameter and every EIE checkpoint the
parent commit produced; ``tests/test_stream_pipeline.py`` compares them
bit for bit.

It was written by running this module against the parent's sources::

    PYTHONPATH=<parent checkout>/src python -m tests.golden_pretrain

Everything here uses only API that exists at both commits.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core import CPDGConfig, CPDGPreTrainer
from repro.graph.events import EventStream

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "fixtures",
                           "golden_pretrain.npz")
BACKBONES = ("tgn", "jodie", "dyrep")


def golden_stream() -> EventStream:
    """240 events on 40 nodes with edge features and whole-number
    timestamps, so many events share a time (ties on the memory clock)."""
    rng = np.random.default_rng(5)
    num_events, num_nodes = 240, 40
    half = num_nodes // 2
    return EventStream(
        src=rng.integers(0, half, num_events),
        dst=rng.integers(half, num_nodes, num_events),
        timestamps=np.sort(rng.integers(0, 60, num_events)).astype(float),
        edge_feats=rng.normal(size=(num_events, 4)),
        num_nodes=num_nodes, name="golden-pretrain")


def golden_config() -> CPDGConfig:
    return CPDGConfig(eta=3, epsilon=3, depth=2, epochs=2, batch_size=48,
                      memory_dim=8, embed_dim=8, time_dim=4, edge_dim=4,
                      n_neighbors=3, num_checkpoints=3, dtype="float32",
                      use_temporal_contrast=True,
                      use_structural_contrast=True, compile_step=True,
                      num_workers=0, seed=0)


def build_golden() -> dict[str, np.ndarray]:
    stream = golden_stream()
    record: dict[str, np.ndarray] = {}
    for backbone in BACKBONES:
        trainer = CPDGPreTrainer.from_backbone(backbone, stream.num_nodes,
                                               golden_config())
        result = trainer.pretrain(stream)
        record[f"{backbone}/loss_history"] = np.asarray(result.loss_history)
        record[f"{backbone}/memory_state"] = result.memory_state
        record[f"{backbone}/last_update"] = result.last_update
        for name, value in result.encoder_state.items():
            record[f"{backbone}/param/{name}"] = value
        for i, checkpoint in enumerate(result.checkpoints.as_list()):
            record[f"{backbone}/checkpoint/{i}"] = checkpoint
    return record


def main() -> None:
    np.savez_compressed(GOLDEN_PATH, **build_golden())


if __name__ == "__main__":
    main()
