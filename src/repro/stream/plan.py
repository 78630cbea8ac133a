"""Deterministic batch plans and order-independent per-batch seeding.

CPDG pre-training (paper Algorithm 1) walks the event stream in
chronological batches, every epoch.  :class:`BatchPlan` enumerates that
walk as explicit :class:`WorkItem` records — ``(epoch, batch_idx)`` plus
the event slice — so batch *production* (subgraph sampling, negative
drawing, message staging) can happen anywhere: in-process, on worker
processes, eventually on other machines.

Reproducibility hinges on seeding.  The historical trainer advanced one
shared RNG across all batches of all epochs, so a batch's draws depended
on every batch sampled before it — producing batches out of order (or
resuming mid-run) silently changed results.  :func:`batch_rngs` instead
derives each batch's generators from ``(seed, epoch, batch_idx)`` via
``numpy.random.SeedSequence``, making every batch's randomness a pure
function of its coordinates: serial and worker-process producers are
bit-identical, and any batch can be regenerated in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["StreamError", "WorkItem", "BatchPlan", "BatchRngs",
           "batch_seed_sequence", "batch_rngs"]

# Domain tag keeping stream-pipeline seed derivations disjoint from any
# other SeedSequence use of the same root seed.
_SEED_DOMAIN = 0x5D6


class StreamError(RuntimeError):
    """Unusable streaming-pipeline configuration or a failed producer
    (a work item past the stream, a dead producer child)."""


@dataclass(frozen=True)
class WorkItem:
    """One batch's coordinates: where it sits and which events it covers.

    ``seq`` is the global consumption order (``epoch * batches_per_epoch
    + batch_idx``); producers may finish items out of order, consumers
    reassemble by ``seq``.
    """

    seq: int
    epoch: int
    batch_idx: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


class BatchPlan:
    """Deterministic enumeration of ``(epoch, batch)`` work items.

    The plan is pure arithmetic over ``(num_events, batch_size, epochs)``
    — no RNG, no data — so every producer (and every process) derives the
    identical item list.
    """

    def __init__(self, num_events: int, batch_size: int, epochs: int = 1,
                 seed: int = 0):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if epochs < 1:
            raise ValueError("epochs must be positive")
        self.num_events = int(num_events)
        self.batch_size = int(batch_size)
        self.epochs = int(epochs)
        self.seed = int(seed)

    @property
    def batches_per_epoch(self) -> int:
        return -(-self.num_events // self.batch_size)

    def __len__(self) -> int:
        return self.epochs * self.batches_per_epoch

    def item(self, seq: int) -> WorkItem:
        """The ``seq``-th work item (consumption order)."""
        if not 0 <= seq < len(self):
            raise IndexError(f"work item {seq} out of range ({len(self)})")
        per_epoch = self.batches_per_epoch
        epoch, batch_idx = divmod(seq, per_epoch)
        start = batch_idx * self.batch_size
        return WorkItem(seq=seq, epoch=epoch, batch_idx=batch_idx,
                        start=start,
                        stop=min(start + self.batch_size, self.num_events))

    def __iter__(self) -> Iterator[WorkItem]:
        return (self.item(seq) for seq in range(len(self)))

    def rngs(self, item: WorkItem) -> "BatchRngs":
        return batch_rngs(self.seed, item.epoch, item.batch_idx)


@dataclass
class BatchRngs:
    """The independent generators one batch's production may draw from.

    One named child per random decision so adding a new consumer never
    perturbs existing draws: corrupted destinations, the chronological /
    reverse-chronological η-BFS races, and the structural negative roots.
    """

    neg_dst: np.random.Generator
    temporal_pos: np.random.Generator
    temporal_neg: np.random.Generator
    structural: np.random.Generator


def _entropy(value: int) -> int:
    """SeedSequence entropy words must be non-negative integers."""
    return int(value) % (1 << 63)


def batch_seed_sequence(seed: int, epoch: int,
                        batch_idx: int) -> np.random.SeedSequence:
    """The root sequence of one batch's randomness.

    Keyed purely by coordinates — never by how many draws happened before
    — so results are independent of production order and identical across
    processes.
    """
    return np.random.SeedSequence(
        entropy=(_SEED_DOMAIN, _entropy(seed), _entropy(epoch),
                 _entropy(batch_idx)))


def batch_rngs(seed: int, epoch: int, batch_idx: int) -> BatchRngs:
    """Spawn the four per-batch generators (see :class:`BatchRngs`)."""
    children = batch_seed_sequence(seed, epoch, batch_idx).spawn(4)
    return BatchRngs(*(np.random.default_rng(child) for child in children))
