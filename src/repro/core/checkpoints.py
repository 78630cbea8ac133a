"""Memory checkpoint scheduling for EIE (paper §IV-C, Eq. 18).

During pre-training CPDG stores ``L`` uniformly spaced snapshots
``[S^1, …, S^L]`` of the DGNN memory.  :class:`CheckpointSchedule` decides
*when* to snapshot given the total number of optimisation steps, and
:class:`MemoryCheckpoints` holds the snapshots.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CheckpointSchedule", "MemoryCheckpoints"]


class CheckpointSchedule:
    """Uniform snapshot points over ``total_steps`` training steps.

    The last checkpoint always falls on the final step so ``S^L`` reflects
    the fully pre-trained memory.
    """

    def __init__(self, total_steps: int, num_checkpoints: int):
        if total_steps < 1:
            raise ValueError("total_steps must be positive")
        count = min(num_checkpoints, total_steps)
        points = np.linspace(total_steps / count, total_steps, count)
        self.steps = sorted(set(int(round(p)) for p in points))
        self._step_set = set(self.steps)

    def should_checkpoint(self, step: int) -> bool:
        """``step`` is 1-based (after the step completes)."""
        return step in self._step_set


def _frozen(array: np.ndarray) -> bool:
    """Whether ``array`` and every array it is a view of are read-only."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return True


class MemoryCheckpoints:
    """The sequence ``[S^1, …, S^L]`` of raw memory snapshots.

    ``dtype`` optionally casts snapshots on :meth:`add` (float32 halves
    the ``L × num_nodes × dim`` footprint of EIE checkpointing); ``None``
    keeps each snapshot's own dtype.  Stored snapshots are read-only, so
    holders may share one array instead of copying it.
    """

    def __init__(self, dtype=None):
        self.dtype = None if dtype is None else np.dtype(dtype)
        self._snapshots: list[np.ndarray] = []

    def add(self, state: np.ndarray) -> None:
        """Store one snapshot, independent of later writes to ``state``.

        A frozen array of the target dtype that no writeable array shares
        memory with — what :meth:`Memory.checkpoint` hands out — cannot
        change under us and is adopted as is; anything else is copied once
        and frozen.
        """
        snap = np.asarray(state)
        cast = self.dtype is not None and snap.dtype != self.dtype
        if cast or not _frozen(snap):
            snap = np.array(snap, dtype=self.dtype, copy=True)
            snap.flags.writeable = False
        self._snapshots.append(snap)

    def __len__(self) -> int:
        return len(self._snapshots)

    def __getitem__(self, index: int) -> np.ndarray:
        return self._snapshots[index]

    def as_list(self) -> list[np.ndarray]:
        return list(self._snapshots)

    def truncate(self, length: int) -> "MemoryCheckpoints":
        """Keep the last ``length`` snapshots (for the Figure 8 L-sweep)."""
        out = MemoryCheckpoints()
        for snap in self._snapshots[-length:]:
            out.add(snap)
        return out
