"""The producer → trainer interchange format.

A :class:`PreparedBatch` is everything about one training batch that does
*not* depend on model state: the chronological event slice with its
corrupted destinations and the four contrast subgraphs (paper §IV-A).
All fields are flat numpy arrays or offset-indexed batches, so a
prepared batch pickles cheaply across process boundaries.

What stays on the trainer — deliberately — is every model-dependent
read: embeddings, the memory states and time gaps (``t - last_update``)
of raw-message staging, readouts.  The producer/consumer seam is exactly
"before the first parameter is touched".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..graph.batching import EventBatch

if TYPE_CHECKING:  # annotation-only: keeps repro.stream import-light
    from ..core.samplers import SubgraphBatch

__all__ = ["PreparedBatch"]


@dataclass
class PreparedBatch:
    """One fully-produced training batch (model-independent parts).

    ``temporal_*`` / ``structural_*`` are ``None`` when the run disables
    that contrast.
    """

    seq: int
    epoch: int
    batch_idx: int
    batch: EventBatch
    temporal_pos: SubgraphBatch | None = None
    temporal_neg: SubgraphBatch | None = None
    structural_pos: SubgraphBatch | None = None
    structural_neg: SubgraphBatch | None = None

    def __len__(self) -> int:
        return len(self.batch)

    @property
    def temporal_pairs(self) -> tuple[SubgraphBatch, SubgraphBatch]:
        return self.temporal_pos, self.temporal_neg

    @property
    def structural_pairs(self) -> tuple[SubgraphBatch, SubgraphBatch]:
        return self.structural_pos, self.structural_neg
