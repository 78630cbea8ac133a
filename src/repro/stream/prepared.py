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

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..graph.batching import EventBatch

if TYPE_CHECKING:  # annotation-only: keeps repro.stream import-light
    from ..core.samplers import SubgraphBatch

__all__ = ["PreparedBatch"]


def _materialize_array(value):
    if isinstance(value, np.ndarray):
        # Detach from any memory map / shared buffer before pickling.
        return np.ascontiguousarray(value)
    return value


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

    def materialize(self) -> "PreparedBatch":
        """Copy any memmap-backed fields into plain arrays.

        Worker processes produce straight off memory-mapped shards; the
        result must not reference the maps once it crosses the queue.
        """
        batch = EventBatch(
            src=_materialize_array(self.batch.src),
            dst=_materialize_array(self.batch.dst),
            timestamps=_materialize_array(self.batch.timestamps),
            neg_dst=_materialize_array(self.batch.neg_dst),
            event_ids=_materialize_array(self.batch.event_ids),
            labels=_materialize_array(self.batch.labels),
        )
        return replace(self, batch=batch)
