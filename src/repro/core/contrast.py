"""Structural-temporal contrastive objectives (paper §IV-B), batch-first.

Both contrasts share one mechanic: pool the *memory states* of a sampled
subgraph (row gathers from the flushed :class:`~repro.dgnn.memory.Memory`)
into a vector with a readout (mean pooling, Eq. 9/10/12/13) and apply a
triplet margin loss against the centre node's embedding (Eq. 11/14).

* temporal contrast ``L_η`` — positive = chronological η-BFS subgraph,
  negative = reverse-chronological η-BFS subgraph of the *same* node;
  captures short-term fluctuating patterns.
* structural contrast ``L_ε`` — positive = the node's own ε-DFS
  subgraph, negative = the ε-DFS subgraph of a random *other* node
  (:func:`draw_other_roots`, instance discrimination); captures
  discriminative structural patterns.

The subgraphs are drawn by the batch producer
(:func:`repro.stream.producer.produce_batch`, whole-frontier
``sample_batch`` kernels under per-batch generators) and pooled here with
scatter readouts, so one pre-training step issues a constant number of
numpy passes regardless of batch size.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.autograd import Tensor
from ..nn.losses import info_nce_loss, triplet_margin_loss
from .samplers import SubgraphBatch

__all__ = ["subgraph_readout", "contrast_loss_from_pairs",
           "draw_other_roots", "READOUTS", "OBJECTIVES"]

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

    Either contrast: pool the memory states of the given subgraphs
    (Eq. 9/10/12/13) and apply the objective (Eq. 11/14).  Pure function
    of model state — it draws nothing — so a trainer fed by a batch
    producer needs no sampler objects at all.
    """
    h_pos = subgraph_readout(memory, positives, readout)
    h_neg = subgraph_readout(memory, negatives, readout)
    return _contrast_objective(objective, embeddings, h_pos, h_neg, margin)


def draw_other_roots(nodes: np.ndarray, num_nodes: int,
                     rng: np.random.Generator) -> np.ndarray:
    """One random node ``i' != i`` per row (instance-discrimination roots)."""
    others = rng.integers(0, num_nodes, size=len(nodes))
    collide = others == nodes
    while collide.any():
        others[collide] = rng.integers(0, num_nodes, size=int(collide.sum()))
        collide = others == nodes
    return others
