"""Fixtures frozen at the commit before the fused primitives (cbd9bb7).

PR 16 replaced the elementary-op spelling of every affine layer, the GRU
cell and the time encoder by single-node kernels and made row-sparse
gradient accumulation sort-based.  Neither may change what a saved model
*is* — parameter names, shapes, seeded initial values — and the numbers
may move only by rounding.  The files under ``tests/fixtures/`` record
what the parent commit produced:

``parent_modules.npz``
    the seeded initial ``state_dict`` of every module family, keyed
    ``<module>/<parameter>`` in ``state_dict`` order;
``parent_artifact.npz``
    a :class:`~repro.api.PretrainArtifact` saved by the parent;
``parent_expected.npz``
    embeddings the parent served from that artifact, and the parent's
    float64 / float32 loss histories of :func:`tiny_pretrain`.

They were written by running this module against the parent's sources::

    PYTHONPATH=<parent checkout>/src python -m tests.parent_fixtures

Everything here uses only API that exists at both commits, so the same
builders run on either side of the comparison.
"""

from __future__ import annotations

import os

import numpy as np

from repro.api import PretrainArtifact, RunConfig, stream_fingerprint
from repro.core import CPDGConfig
from repro.core.checkpoints import MemoryCheckpoints
from repro.core.eie import EIEModule
from repro.core.pretrainer import CPDGPreTrainer
from repro.dgnn.encoder import make_encoder
from repro.graph.events import EventStream
from repro.serve import EmbeddingService

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
MODULES_PATH = os.path.join(FIXTURES, "parent_modules.npz")
ARTIFACT_PATH = os.path.join(FIXTURES, "parent_artifact.npz")
EXPECTED_PATH = os.path.join(FIXTURES, "parent_expected.npz")

NUM_NODES = 60
EMBED_NODES = np.arange(0, NUM_NODES, 3)
EMBED_TS = 150.0


def tiny_stream(seed: int = 5, events: int = 360) -> EventStream:
    rng = np.random.default_rng(seed)
    return EventStream(
        src=rng.integers(0, NUM_NODES // 2, events),
        dst=rng.integers(NUM_NODES // 2, NUM_NODES, events),
        timestamps=np.sort(rng.uniform(0.0, 100.0, events)),
        num_nodes=NUM_NODES, name="fused-primitives")


def tiny_config(dtype: str = "float32") -> RunConfig:
    return RunConfig(backbone="tgn", pretrain=CPDGConfig(
        epochs=2, batch_size=60, memory_dim=8, embed_dim=8, time_dim=4,
        edge_dim=0, n_neighbors=5, num_checkpoints=3, seed=0, dtype=dtype))


def tiny_pretrain(dtype: str):
    """The ``PretrainResult`` of a seeded 12-step run on :func:`tiny_stream`."""
    config = tiny_config(dtype)
    trainer = CPDGPreTrainer.from_backbone(
        config.backbone, NUM_NODES, config.pretrain, delta_scale=1.0)
    return trainer.pretrain(tiny_stream())


def build_modules() -> dict:
    """One seeded instance of every module family the fused kernels touch."""
    modules = {
        backbone: make_encoder(backbone, NUM_NODES, np.random.default_rng(7),
                               memory_dim=8, embed_dim=8, time_dim=4,
                               edge_dim=3, n_neighbors=4)
        for backbone in ("tgn", "jodie", "dyrep")}
    checkpoints = MemoryCheckpoints()
    for k in range(3):
        checkpoints.add(np.random.default_rng(k).normal(size=(NUM_NODES, 8)))
    for fuser in ("gru", "attn"):
        modules[f"eie_{fuser}"] = EIEModule(checkpoints, fuser, 6,
                                            np.random.default_rng(11))
    return modules


def module_states() -> dict[str, np.ndarray]:
    return {f"{name}/{key}": value
            for name, module in build_modules().items()
            for key, value in module.state_dict().items()}


def serve_embeddings(artifact) -> np.ndarray:
    """Rows a cache-free service answers for the pinned query."""
    service = EmbeddingService.from_artifact(artifact, history=tiny_stream(),
                                             cache_capacity=0)
    try:
        return np.asarray(service.embed(EMBED_NODES, EMBED_TS))
    finally:
        service.close()


def main() -> None:
    os.makedirs(FIXTURES, exist_ok=True)
    np.savez_compressed(MODULES_PATH, **module_states())
    stream = tiny_stream()
    result32, result64 = tiny_pretrain("float32"), tiny_pretrain("float64")
    PretrainArtifact(
        result=result32, run_config=tiny_config("float32"),
        num_nodes=NUM_NODES, delta_scale=1.0,
        dataset_fingerprint=stream_fingerprint(stream),
        dataset_name=stream.name).save(ARTIFACT_PATH)
    np.savez_compressed(
        EXPECTED_PATH,
        embeddings=serve_embeddings(ARTIFACT_PATH),
        loss_history_f32=np.asarray(result32.loss_history, dtype=np.float64),
        loss_history_f64=np.asarray(result64.loss_history, dtype=np.float64))


if __name__ == "__main__":
    main()
