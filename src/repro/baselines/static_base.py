"""Shared infrastructure for the static GNN baselines (paper §V-B).

GraphSAGE / GAT / GIN / DGI / GPT-GNN ignore temporal dynamics: no memory,
no time encoding, no recency weighting.  To keep one leak-free evaluation
protocol for every method, the static encoders still answer
``compute_embedding(nodes, ts)`` — they aggregate learnable node
embeddings over neighbours *observed strictly before* ``ts`` (so no future
edges leak into a score) but treat all such neighbours identically,
which is precisely their handicap on dynamic graphs.

The :class:`StaticEncoderBase` implements the full encoder protocol that
:class:`~repro.tasks.link_prediction.LinkPredictionTask` drives (attach /
compute_embedding / register_batch / end_batch / memory snapshot no-ops),
so every baseline runs through the identical fine-tuning harness.
"""

from __future__ import annotations

import numpy as np

from ..graph.batching import EventBatch
from ..graph.events import EventStream
from ..graph.neighbor_finder import NeighborFinder
from ..nn import functional as F
from ..nn.autograd import Tensor
from ..nn.layers import Embedding
from ..nn.module import Module

__all__ = ["StaticEncoderBase"]


class StaticEncoderBase(Module):
    """Base class: learnable node features + L neighbourhood layers.

    Subclasses implement :meth:`combine` mapping the centre representation
    and the padded neighbour block to the next-layer representation.
    """

    def __init__(self, num_nodes: int, embed_dim: int, n_neighbors: int,
                 n_layers: int, rng: np.random.Generator):
        super().__init__()
        self.num_nodes = num_nodes
        self.embed_dim = embed_dim
        self.n_neighbors = n_neighbors
        self.n_layers = n_layers
        self.node_embedding = Embedding(num_nodes, embed_dim, rng)
        self._finder: NeighborFinder | None = None

    # ------------------------------------------------------------------
    # encoder protocol (duck-typed against DGNNEncoder)
    # ------------------------------------------------------------------
    def attach(self, stream: EventStream, finder: NeighborFinder | None = None) -> None:
        self._finder = finder if finder is not None else NeighborFinder(stream)

    def reset_memory(self) -> None:  # static models hold no memory
        return None

    def memory_snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros((0, 0)), np.zeros(0)

    def load_memory(self, state: np.ndarray, last_update: np.ndarray | None = None) -> None:
        return None

    def memory_checkpoint(self) -> np.ndarray:
        return np.zeros((self.num_nodes, self.embed_dim))

    def flush_messages(self) -> None:
        return None

    def register_batch(self, batch: EventBatch) -> None:
        return None

    def end_batch(self) -> None:
        return None

    # ------------------------------------------------------------------
    # embedding
    # ------------------------------------------------------------------
    def compute_embedding(self, nodes: np.ndarray, ts: np.ndarray) -> Tensor:
        if self._finder is None:
            raise RuntimeError("encoder not attached to a stream; call attach()")
        nodes = np.asarray(nodes, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        return self._layer(nodes, ts, self.n_layers)

    def _layer(self, nodes: np.ndarray, ts: np.ndarray, layer: int) -> Tensor:
        if layer == 0:
            return self.node_embedding(nodes)
        neighbors, _, _, mask = self._finder.batch_most_recent(
            nodes, ts, self.n_neighbors)
        center = self._layer(nodes, ts, layer - 1)
        flat = neighbors.reshape(-1)
        flat_ts = np.repeat(ts, self.n_neighbors)
        neighbor_repr = self._layer(flat, flat_ts, layer - 1)
        batch = len(nodes)
        block = neighbor_repr.reshape(batch, self.n_neighbors, self.embed_dim)
        return self.combine(center, block, mask, layer, ts)

    def combine(self, center: Tensor, neighbors: Tensor, mask: np.ndarray,
                layer: int, ts: np.ndarray) -> Tensor:
        raise NotImplementedError

    @staticmethod
    def masked_mean(neighbors: Tensor, mask: np.ndarray) -> Tensor:
        """Mean over valid neighbour slots; zero vector when none."""
        valid = (~mask).astype(np.float64)
        counts = np.maximum(valid.sum(axis=1, keepdims=True), 1.0)
        weights = Tensor(valid[:, :, None] / counts[:, :, None])
        return (neighbors * weights).sum(axis=1)

    @staticmethod
    def masked_sum(neighbors: Tensor, mask: np.ndarray) -> Tensor:
        valid = Tensor((~mask).astype(np.float64)[:, :, None])
        return (neighbors * valid).sum(axis=1)
