"""The DGNN memory ``M`` (paper §III-B): states, clocks, pending messages.

One :class:`Memory`, in the shape of PyG's ``TGNMemory``, holds what the
memory module carries between batches: a state ``s_i^t`` per node, its
last-update time, the raw messages batch ``k`` staged for batch ``k+1``
(:class:`StagedMessages`) and, while a batch is open, the in-graph rows
its flush rewrote.  States persist *detached* between batches (TGN-style
one-batch truncated BPTT).  A batch costs ``O(touched_rows × dim)``
whatever ``num_nodes`` is: a preallocated ``assoc`` array maps a node to
its delta row and is reset over the touched rows only.  The full-matrix
flush of the original TGN-style implementation is the oracle the tests
(``TestEngineEquivalence``) hold this path to, bit for bit.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from ..nn import functional as F
from ..nn.autograd import Tensor

__all__ = ["Memory", "StagedMessages"]

# numpy advises its own allocations of this size and more into
# transparent huge pages.
_HUGE_ADVICE_BYTES = 1 << 22

_NO_ROWS = np.empty(0, dtype=np.int64)


def _zero_matrix(shape: tuple[int, int], dtype: np.dtype) -> np.ndarray:
    """A zero matrix whose pages exist only once something writes them.

    ``np.zeros`` promises the same, but numpy advises its large
    allocations into transparent huge pages, so the first write to any row
    makes the kernel find and zero 2 MB at fault time (compacting memory
    first when it has to).  For a store that is sized for every node and
    written for a few percent of them that is both most of the cost and
    the largest run-to-run variation of a pre-training pass: on the
    reference box one 100 000 × 64 float32 snapshot with 4 582 written
    rows took 3–85 ms and 14 MB of resident memory through ``np.zeros``
    (a full copy 5–440 ms), and 1.0–1.1 ms and 2 MB through an anonymous
    mapping, which keeps the kernel's 4 kB granularity.  Small matrices,
    and platforms without private anonymous mappings, use ``np.zeros``.
    """
    nbytes = shape[0] * shape[1] * dtype.itemsize
    if nbytes < _HUGE_ADVICE_BYTES or not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros(shape, dtype=dtype)
    pages = mmap.mmap(-1, nbytes,
                      flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.ndarray(shape, dtype=dtype, buffer=pages)


@dataclass
class StagedMessages:
    """Flat struct-of-arrays staging of one or more batches' raw messages.

    One row per (node, event) message: ``nodes[k]`` received a message
    with pre-event endpoint states ``self_state[k]`` / ``other_state[k]``,
    time gap ``delta_t[k]``, event time ``time[k]``, edge features
    ``edge_feat[k]`` (``None`` when the stream has no real features — the
    flush substitutes zero rows) from event ``event_ids[k]``.  Feature
    rows are captured at staging time so a later ``attach()`` to a
    different stream cannot change pending messages.  Rows are in staging
    order, so "last message per node" is a vectorized argmax over row
    positions.
    """

    nodes: np.ndarray        # (M,) int64
    self_state: np.ndarray   # (M, D)
    other_state: np.ndarray  # (M, D)
    delta_t: np.ndarray      # (M,) float64
    time: np.ndarray         # (M,) float64
    event_ids: np.ndarray    # (M,) int64
    edge_feat: np.ndarray | None = None   # (M, E) or None

    def per_node(self) -> tuple[np.ndarray, np.ndarray]:
        """``(unique_sorted_nodes, rows)``: each node's row of its most
        recent message."""
        uniq, inverse = np.unique(self.nodes, return_inverse=True)
        rows = np.zeros(len(uniq), dtype=np.int64)
        np.maximum.at(rows, inverse, np.arange(len(self.nodes), dtype=np.int64))
        return uniq, rows


class Memory:
    """Per-node state storage with zero initialisation (paper §V-C).

    The store knows which rows may be non-zero, so :meth:`reset` and
    :meth:`checkpoint` cost ``O(written rows)`` instead of touching every
    page of a ``num_nodes × dim`` matrix whose rows are mostly still at
    their zero initialisation.  Rows are written only by :meth:`persist`
    (the rows it stores) and :meth:`load` (every row); :attr:`state` is a
    read-only view.  In a batch, :meth:`write` routes the updater's rows
    into a ``(K, dim)`` in-graph delta that :meth:`gather` overlays on
    detached store rows and :meth:`persist` stores back: gradients reach
    exactly the written rows, nothing is graph-sized.
    """

    def __init__(self, num_nodes: int, dim: int, dtype=np.float64):
        self.num_nodes = num_nodes
        self.dim = dim
        self.shape = (num_nodes, dim)
        self.dtype = np.dtype(dtype)
        self._state = _zero_matrix((num_nodes, dim), self.dtype)
        # Mask of rows written since the matrix was last all zero.
        self._written = np.zeros(num_nodes, dtype=bool)
        self.last_update = np.zeros(num_nodes, dtype=np.float64)
        # The batch's delta: ``touched`` ids, their in-graph rows, and
        # node -> delta row (-1 for every node off the delta).
        self.touched = _NO_ROWS
        self._delta_rows: Tensor | None = None
        self._assoc = np.full(num_nodes, -1, dtype=np.int64)
        self._staged: list[StagedMessages] = []

    @property
    def state(self) -> np.ndarray:
        """The ``(num_nodes, dim)`` matrix as a read-only view."""
        view = self._state.view()
        view.flags.writeable = False
        return view

    def reset(self) -> None:
        """Zero every state and clock; drop the delta and staged messages."""
        self.discard()
        self._staged = []
        self._state[self._written] = 0.0
        self._written[:] = False
        self.last_update[:] = 0.0

    def load(self, state: np.ndarray,
             last_update: np.ndarray | None = None) -> None:
        """Make ``state`` (and ``last_update``) the authoritative memory,
        dropping the delta and staged messages; shapes are checked first."""
        state = np.asarray(state)
        if state.shape != self.shape:
            raise ValueError(f"memory_state has shape {state.shape}, "
                             f"expected {self.shape}")
        if last_update is not None \
                and np.shape(last_update) != (self.num_nodes,):
            raise ValueError(f"last_update has shape {np.shape(last_update)}"
                             f", expected ({self.num_nodes},)")
        self.discard()
        self._staged = []
        self._state = np.array(state, dtype=self.dtype, copy=True)
        self._written[:] = True
        if last_update is not None:
            self.last_update = np.array(last_update, dtype=np.float64)

    def _hits(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions in ``nodes`` the delta holds, and their delta rows."""
        pos = self._assoc[nodes]
        hit = np.flatnonzero(pos >= 0)
        return hit, pos[hit]

    def gather(self, nodes: np.ndarray) -> Tensor:
        """In-graph rows of ``nodes``: the batch's delta over the store."""
        nodes = np.asarray(nodes, dtype=np.int64)
        base = Tensor(self._state[nodes])
        if self._delta_rows is None or len(nodes) == 0:
            return base
        hit, pos = self._hits(nodes)
        # No hit.any() short-circuit: the op stream must depend only on
        # whether delta rows exist at all (a per-step key degree of
        # freedom), not on which nodes this batch happens to overlap —
        # otherwise replay-compiled steps mismatch whenever the overlap
        # pattern flips.  The empty-hit ops gather and scatter 0 rows.
        return F.scatter_rows(base, hit,
                              F.embedding_lookup(self._delta_rows, pos))

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        """Detached copies of the current rows of ``nodes``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        out = self._state[nodes]
        if self._delta_rows is not None:
            hit, pos = self._hits(nodes)
            out[hit] = self._delta_rows.data[pos]
        return out

    def write(self, nodes: np.ndarray, rows: Tensor) -> None:
        """Make ``rows`` (in-graph, one per unique id) the batch's delta;
        replacing any earlier one is what a flush re-run needs."""
        nodes = np.asarray(nodes, dtype=np.int64)
        self.discard()
        if len(nodes) == 0:
            return
        order = np.arange(len(nodes))
        self._assoc[nodes] = order
        if (self._assoc[nodes] != order).any():
            self._assoc[nodes] = -1
            raise ValueError("memory write requires unique node ids")
        self.touched, self._delta_rows = nodes, rows

    def discard(self) -> None:
        """Drop the batch's delta: gathers read the persisted rows again."""
        self._assoc[self.touched] = -1
        self.touched, self._delta_rows = _NO_ROWS, None

    def persist(self) -> None:
        """Store the batch's delta rows back (detached) and close it."""
        if self._delta_rows is not None:
            self._state[self.touched] = self._delta_rows.data
            self._written[self.touched] = True
        self.discard()

    def touch(self, nodes: np.ndarray, ts: np.ndarray) -> None:
        """Advance last-update times for ``nodes`` (max with existing)."""
        np.maximum.at(self.last_update, np.asarray(nodes, dtype=np.int64),
                      np.asarray(ts, dtype=np.float64))

    def checkpoint(self) -> np.ndarray:
        """Snapshot of the raw state matrix (for EIE, paper Eq. 18).

        The copy is frozen (read-only), so it can be handed on and shared
        without another defensive copy.  When the written rows are known
        and few, only they are copied: the pages of never-written rows are
        not touched, which on a graph with many idle nodes is most of them.
        """
        snap = _zero_matrix(self._state.shape, self.dtype)
        written = self._written
        if 2 * np.count_nonzero(written) > self.num_nodes:
            snap[:] = self._state
        else:
            snap[written] = self._state[written]
        snap.flags.writeable = False
        return snap

    def stage(self, nodes: np.ndarray, self_state: np.ndarray,
              other_state: np.ndarray, delta_t: np.ndarray,
              time: np.ndarray, event_ids: np.ndarray,
              edge_feat: np.ndarray | None = None) -> None:
        """Queue one batch's raw messages, flushed in the next batch.

        As in the reference TGN implementation, batch ``k``'s messages
        update the memory inside batch ``k+1``'s graph so the message
        function and updater receive gradients.  A block of flat arrays is
        checked first (a row per message in every column, ids in
        ``[0, num_nodes)``, ``dim``-wide states): a damaged one, from a
        serve snapshot say, fails here and not at the next flush.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(nodes) == 0:
            return
        block = StagedMessages(
            nodes, np.asarray(self_state), np.asarray(other_state),
            np.asarray(delta_t, dtype=np.float64),
            np.asarray(time, dtype=np.float64),
            np.asarray(event_ids, dtype=np.int64),
            None if edge_feat is None else np.asarray(edge_feat))
        for name, column in vars(block).items():
            if column is not None and (
                    column.shape[:1] != nodes.shape or name.endswith("state")
                    and column.shape[1:] != (self.dim,)):
                raise ValueError(f"staged_{name} has shape {column.shape}: "
                                 f"{len(nodes)} messages, {self.dim}-wide")
        if nodes.min() < 0 or nodes.max() >= self.num_nodes:
            raise ValueError(f"staged_nodes must lie in [0, {self.num_nodes})")
        self._staged.append(block)

    def pending(self, pop: bool = False) -> StagedMessages | None:
        """Staged blocks as one record (None if none); ``pop`` empties them.

        Mixed None/array edge features (an ``attach()`` swapped a
        featureless stream for a featured one mid-stage) substitute zero
        rows for the None blocks.
        """
        blocks = self._staged
        if pop:
            self._staged = []
        if len(blocks) <= 1:
            return blocks[0] if blocks else None
        width = next((b.edge_feat.shape[1] for b in blocks
                      if b.edge_feat is not None), None)
        return StagedMessages(
            *(np.concatenate([getattr(b, name) for b in blocks])
              for name in ("nodes", "self_state", "other_state", "delta_t",
                           "time", "event_ids")),
            edge_feat=None if width is None else np.concatenate([
                np.zeros((len(b.nodes), width)) if b.edge_feat is None
                else b.edge_feat for b in blocks]))
