"""Golden record of the neighbour query's consumers outside the DGNN encoder.

The static GNN baselines (GraphSAGE, also the encoder of DGI and GPT-GNN;
GIN, GAT and SelfRGNN, which all share
:class:`~repro.baselines.static_base.StaticEncoderBase`), DDGCL's
attention tower and the ε-DFS sampler all read the newest ``count``
neighbours of each row before its time.  The answer's layout may change;
a number they compute may not.  ``tests/fixtures/golden_baselines.npz``
records, per baseline, ``compute_embedding`` at three query batches
(rows with no history, rows before their first event, rows with more
history than ``n_neighbors``) and one ``BASELINES[name].pretrain`` loss
history, plus ε-DFS ``sample_batch`` over every event endpoint of the
``pretrain-hub`` smoke stream at its default ``epsilon`` / ``depth``;
``tests/test_baselines.py`` compares them bit for bit.

It was written by running this module against the sources before the
padded neighbour query was removed::

    PYTHONPATH=<parent checkout>/src python -m tests.golden_baselines

Everything here uses only API that exists at both commits.
"""

from __future__ import annotations

import os

import numpy as np

from repro.baselines import BASELINES, BaselinePretrainConfig
from repro.core import CPDGConfig
from repro.core.samplers import EpsilonDFSSampler
from repro.graph.events import EventStream
from repro.graph.neighbor_finder import NeighborFinder

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "fixtures",
                           "golden_baselines.npz")
BASELINE_NAMES = ("graphsage", "gin", "gat", "dgi", "gpt-gnn", "selfrgnn",
                  "ddgcl")


def golden_stream() -> EventStream:
    """160 events among nodes 0..29 of a 36-node space (30..35 never
    appear), whole-number timestamps so many events share a time."""
    rng = np.random.default_rng(11)
    num_events, num_nodes = 160, 36
    return EventStream(
        src=rng.integers(0, 15, num_events),
        dst=rng.integers(15, 30, num_events),
        timestamps=np.sort(rng.integers(1, 50, num_events)).astype(float),
        edge_feats=rng.normal(size=(num_events, 4)),
        num_nodes=num_nodes, name="golden-baselines")


def query_batches() -> list[tuple[np.ndarray, np.ndarray]]:
    """Three ``(nodes, ts)`` batches: early times (most rows empty), the
    middle of the stream, and after the last event (full rows)."""
    nodes = np.arange(36, dtype=np.int64)
    rng = np.random.default_rng(3)
    return [(nodes, rng.uniform(0.0, 8.0, 36)),
            (nodes, np.full(36, 25.0)),
            (rng.permutation(nodes), np.full(36, 60.0))]


def hub_smoke_stream(seed: int = 0) -> EventStream:
    """The ``pretrain-hub`` benchmark stream at its smoke size."""
    rng = np.random.default_rng(seed)
    num_nodes, users, events = 2_000, 200, 600
    half = num_nodes // 2
    ranks = rng.zipf(1.5, size=events)
    return EventStream(
        src=rng.integers(0, users, events),
        dst=half + (ranks - 1) % half,
        timestamps=np.sort(rng.uniform(0.0, 1000.0, events)),
        num_nodes=num_nodes, name=f"hub-{seed}")


def build_golden() -> dict[str, np.ndarray]:
    stream = golden_stream()
    record: dict[str, np.ndarray] = {}
    for name in BASELINE_NAMES:
        spec = BASELINES[name]
        encoder = spec.build(stream.num_nodes, 8, np.random.default_rng(1),
                             n_neighbors=3, time_dim=4)
        encoder.attach(stream)
        for i, (nodes, ts) in enumerate(query_batches()):
            record[f"{name}/embed/{i}"] = encoder.compute_embedding(
                nodes, ts).data
        encoder = spec.build(stream.num_nodes, 8, np.random.default_rng(2),
                             n_neighbors=3, time_dim=4)
        record[f"{name}/loss_history"] = np.asarray(spec.pretrain(
            encoder, stream, BaselinePretrainConfig(epochs=1, batch_size=40)))
    hub = hub_smoke_stream()
    config = CPDGConfig()
    sampler = EpsilonDFSSampler(NeighborFinder(hub), config.epsilon,
                                config.depth)
    batch = sampler.sample_batch(np.concatenate([hub.src, hub.dst]),
                                 np.tile(hub.timestamps, 2))
    record["eps_dfs/nodes"] = batch.nodes
    record["eps_dfs/indptr"] = batch.indptr
    return record


def main() -> None:
    np.savez_compressed(GOLDEN_PATH, **build_golden())


if __name__ == "__main__":
    main()
