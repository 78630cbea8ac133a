"""Structural-temporal contrastive objectives (paper §IV-B), batch-first.

Both contrasts share one mechanic: pool the *memory states* of a sampled
subgraph (row gathers from the flushed :class:`~repro.dgnn.memory.Memory`)
into a vector with a readout (mean pooling, Eq. 9/10/12/13) and apply a
triplet margin loss against the centre node's embedding (Eq. 11/14).

* :class:`TemporalContrast` — positive = chronological η-BFS subgraph,
  negative = reverse-chronological η-BFS subgraph of the *same* node;
  captures short-term fluctuating patterns.
* :class:`StructuralContrast` — positive = the node's own ε-DFS subgraph,
  negative = the ε-DFS subgraph of a random *other* node (instance
  discrimination); captures discriminative structural patterns.

Subgraphs are drawn with the whole-frontier ``sample_batch`` kernels and
pooled with scatter readouts, so one pre-training step issues a constant
number of numpy passes regardless of batch size.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.autograd import Tensor
from ..nn.losses import info_nce_loss, triplet_margin_loss
from .samplers import (EpsilonDFSSampler, EtaBFSSampler, PrecomputedSampler,
                       SubgraphBatch)

__all__ = ["subgraph_readout", "contrast_loss_from_pairs",
           "draw_other_roots", "TemporalContrast", "StructuralContrast",
           "READOUTS", "OBJECTIVES"]

READOUTS = ("mean", "max", "sum")
OBJECTIVES = ("triplet", "infonce")

_SCATTER_POOLS = {"mean": F.scatter_mean, "max": F.scatter_max,
                  "sum": F.scatter_sum}


def subgraph_readout(memory, subgraphs: SubgraphBatch | list[np.ndarray],
                     mode: str = "mean") -> Tensor:
    """Pool memory rows per subgraph (paper Eq. 9/10/12/13).

    The paper uses mean pooling "for simplicity"; ``max`` and ``sum`` are
    the alternatives Eq. 9 alludes to ("min, max, and weighted pooling")
    and are compared in the ablation bench.  ``memory`` is either a plain
    ``(num_nodes, D)`` tensor or a flushed
    :class:`~repro.dgnn.memory.Memory` (sparse row gathers).
    ``subgraphs`` is an offset-indexed
    :class:`~repro.core.samplers.SubgraphBatch` (or one node-id array per
    batch row); every mode is a single scatter over the flat node list.
    Empty subgraphs pool to the zero vector (new nodes with no history).
    """
    if mode not in READOUTS:
        raise ValueError(f"unknown readout {mode!r}; expected {READOUTS}")
    if not isinstance(subgraphs, SubgraphBatch):
        subgraphs = SubgraphBatch.from_list(list(subgraphs))
    batch = len(subgraphs)
    if len(subgraphs.nodes) == 0:
        return Tensor(np.zeros((batch, memory.shape[-1])))
    if hasattr(memory, "gather"):
        states = memory.gather(subgraphs.nodes)
    else:
        states = F.embedding_lookup(memory, subgraphs.nodes)
    return _SCATTER_POOLS[mode](states, subgraphs.groups(), batch)


def _contrast_objective(objective: str, anchor: Tensor, positive: Tensor,
                        negative: Tensor, margin: float) -> Tensor:
    """Triplet margin (paper Eq. 11/14) or in-batch InfoNCE (extension)."""
    if objective == "triplet":
        return triplet_margin_loss(anchor, positive, negative, margin)
    if objective == "infonce":
        batch = negative.shape[0]
        # Every row's negative readout serves as an in-batch negative for
        # every anchor: negatives[i, k] = negative[k].
        negatives = F.stack([negative] * batch, axis=0)
        return info_nce_loss(anchor, positive, negatives)
    raise ValueError(f"unknown objective {objective!r}; expected {OBJECTIVES}")


def contrast_loss_from_pairs(embeddings: Tensor, memory,
                             positives: SubgraphBatch,
                             negatives: SubgraphBatch,
                             readout: str = "mean",
                             objective: str = "triplet",
                             margin: float = 1.0) -> Tensor:
    """Contrast loss over *pre-sampled* positive/negative subgraphs.

    The consumer half of either contrast: pool the memory states of the
    given subgraphs (Eq. 9/10/12/13) and apply the objective
    (Eq. 11/14).  Pure function of model state — it draws nothing — so a
    trainer fed by a batch producer needs no sampler objects at all.
    """
    h_pos = subgraph_readout(memory, positives, readout)
    h_neg = subgraph_readout(memory, negatives, readout)
    return _contrast_objective(objective, embeddings, h_pos, h_neg, margin)


class TemporalContrast:
    """Temporal contrast ``L_η`` (paper Eq. 11).

    ``readout`` and ``objective`` select the pooling and the contrast
    loss; the paper's configuration is ``("mean", "triplet")``.
    """

    def __init__(self, finder, eta: int, depth: int, tau: float = 0.2,
                 margin: float = 1.0, seed: int = 0, readout: str = "mean",
                 objective: str = "triplet"):
        self.positive_sampler = EtaBFSSampler(
            finder, eta, depth, probability="chronological", tau=tau, seed=seed)
        self.negative_sampler = EtaBFSSampler(
            finder, eta, depth, probability="reverse", tau=tau, seed=seed + 1)
        self.margin = margin
        self.readout = readout
        self.objective = objective

    def sample_pairs(self, nodes: np.ndarray, ts: np.ndarray,
                     rngs: tuple[np.random.Generator,
                                 np.random.Generator] | None = None
                     ) -> tuple[SubgraphBatch, SubgraphBatch]:
        """Draw ``(TP_i^t, TN_i^t)`` for the whole batch in two kernel calls.

        ``rngs`` are optional per-call ``(positive, negative)`` generators;
        without them the samplers' own shared generators advance (draws
        then depend on every batch sampled before — see
        :mod:`repro.stream` for the order-independent derivation).
        """
        pos_rng, neg_rng = rngs if rngs is not None else (None, None)
        positives = self.positive_sampler.sample_batch(nodes, ts, rng=pos_rng)
        negatives = self.negative_sampler.sample_batch(nodes, ts, rng=neg_rng)
        return positives, negatives

    def loss(self, embeddings: Tensor, memory: Tensor,
             nodes: np.ndarray | None = None, ts: np.ndarray | None = None,
             pairs: tuple[SubgraphBatch, SubgraphBatch] | None = None
             ) -> Tensor:
        """``L_η`` for one batch; samples unless pre-drawn ``pairs`` given."""
        if pairs is None:
            pairs = self.sample_pairs(nodes, ts)
        return contrast_loss_from_pairs(embeddings, memory, *pairs,
                                        readout=self.readout,
                                        objective=self.objective,
                                        margin=self.margin)


def draw_other_roots(nodes: np.ndarray, num_nodes: int,
                     rng: np.random.Generator) -> np.ndarray:
    """One random node ``i' != i`` per row (instance-discrimination roots)."""
    others = rng.integers(0, num_nodes, size=len(nodes))
    collide = others == nodes
    while collide.any():
        others[collide] = rng.integers(0, num_nodes, size=int(collide.sum()))
        collide = others == nodes
    return others


class StructuralContrast:
    """Structural contrast ``L_ε`` (paper Eq. 14).

    ``readout`` and ``objective`` as in :class:`TemporalContrast`.
    ``precompute`` wraps the (deterministic) ε-DFS sampler in a
    :class:`~repro.core.samplers.PrecomputedSampler` — the §IV-A
    preprocessing optimisation; ``cache_capacity`` bounds that cache.
    """

    def __init__(self, finder, epsilon: int, depth: int, margin: float = 1.0,
                 seed: int = 0, readout: str = "mean",
                 objective: str = "triplet", precompute: bool = False,
                 cache_capacity: int | None = None):
        self.sampler = EpsilonDFSSampler(finder, epsilon, depth)
        if precompute:
            self.sampler = PrecomputedSampler(self.sampler,
                                              capacity=cache_capacity)
        self.margin = margin
        self.readout = readout
        self.objective = objective
        self._rng = np.random.default_rng(seed)

    def sample_pairs(self, nodes: np.ndarray, ts: np.ndarray,
                     num_nodes: int,
                     rng: np.random.Generator | None = None
                     ) -> tuple[SubgraphBatch, SubgraphBatch]:
        """Draw ``(SP_i^t, SN_{i'}^t)``; ``i'`` is a random node ≠ i.

        ``rng`` overrides the shared generator for the negative-root draw
        (the ε-DFS expansion itself is deterministic).
        """
        if num_nodes < 2:
            raise ValueError("structural contrast needs at least two nodes "
                             "to draw a negative root")
        rng = rng if rng is not None else self._rng
        nodes = np.asarray(nodes, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        positives = self.sampler.sample_batch(nodes, ts)
        others = draw_other_roots(nodes, num_nodes, rng)
        negatives = self.sampler.sample_batch(others, ts)
        return positives, negatives

    def loss(self, embeddings: Tensor, memory: Tensor,
             nodes: np.ndarray | None = None, ts: np.ndarray | None = None,
             num_nodes: int | None = None,
             pairs: tuple[SubgraphBatch, SubgraphBatch] | None = None
             ) -> Tensor:
        """``L_ε`` for one batch; samples unless pre-drawn ``pairs`` given."""
        if pairs is None:
            pairs = self.sample_pairs(nodes, ts, num_nodes)
        return contrast_loss_from_pairs(embeddings, memory, *pairs,
                                        readout=self.readout,
                                        objective=self.objective,
                                        margin=self.margin)
