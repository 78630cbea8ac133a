"""The DGNN memory ``M`` (paper §III-B) and its batch view.

Stores one state vector ``s_i^t`` per node plus its last-update time.
States persist *detached* between batches (TGN-style one-batch truncated
BPTT): within a batch the updater writes rows through the autograd graph,
then the view persists them back into the plain backing arrays.

:class:`MemoryView` is one batch's window onto the store, at a per-batch
cost of ``O(touched_rows × dim)`` regardless of ``num_nodes``.  The
full-matrix flush of the original TGN-style implementation is the oracle
the tests (``TestEngineEquivalence``) hold the view to, bit for bit.

The memory is also the object the EIE module checkpoints during
pre-training (paper Eq. 18) — :meth:`Memory.checkpoint` snapshots the raw
state.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from ..nn import functional as F
from ..nn.autograd import Tensor

__all__ = ["Memory", "MemoryView", "RawMessageStore", "StagedMessages"]

# numpy advises its own allocations of this size and more into
# transparent huge pages.
_HUGE_ADVICE_BYTES = 1 << 22


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


class Memory:
    """Per-node state storage with zero initialisation (paper §V-C).

    The store knows which rows may be non-zero, so :meth:`reset` and
    :meth:`checkpoint` cost ``O(written rows)`` instead of touching every
    page of a ``num_nodes × dim`` matrix whose rows are mostly still at
    their zero initialisation.  :meth:`rows` and :meth:`persist_rows` keep
    that bookkeeping exact; the raw :attr:`state` array stays available,
    but handing it out (or replacing it) makes every row count as written
    until the next :meth:`reset`, because the holder may write in place.
    """

    def __init__(self, num_nodes: int, dim: int, dtype=np.float64):
        self.num_nodes = num_nodes
        self.dim = dim
        self.dtype = np.dtype(dtype)
        self._state = _zero_matrix((num_nodes, dim), self.dtype)
        # Mask of rows written since the matrix was last all zero; None
        # when unknown (treated as "all of them").
        self._written: np.ndarray | None = np.zeros(num_nodes, dtype=bool)
        self.last_update = np.zeros(num_nodes, dtype=np.float64)

    @property
    def state(self) -> np.ndarray:
        """The raw ``(num_nodes, dim)`` matrix, writable in place."""
        self._written = None
        return self._state

    @state.setter
    def state(self, value: np.ndarray) -> None:
        self._written = None
        self._state = value

    def reset(self) -> None:
        if self._written is None:
            self._state[:] = 0.0
            self._written = np.zeros(self.num_nodes, dtype=bool)
        else:
            self._state[self._written] = 0.0
            self._written[:] = False
        self.last_update[:] = 0.0

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        """Detached copies of the state rows of ``nodes``."""
        return self._state[np.asarray(nodes, dtype=np.int64)]

    def persist(self, state: np.ndarray) -> None:
        """Store updated (already detached) state values."""
        if state.shape != self._state.shape:
            raise ValueError(f"memory shape mismatch: {state.shape} vs {self._state.shape}")
        self.state = np.array(state, dtype=self.dtype, copy=True)

    def persist_rows(self, nodes: np.ndarray, rows: np.ndarray) -> None:
        """Store updated rows for ``nodes`` only — the sparse-delta write."""
        nodes = np.asarray(nodes, dtype=np.int64)
        self._state[nodes] = rows
        written = self._written
        if written is not None:
            written[nodes] = True

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
        if written is None or 2 * np.count_nonzero(written) > self.num_nodes:
            snap[:] = self._state
        else:
            snap[written] = self._state[written]
        snap.flags.writeable = False
        return snap

    def clone(self) -> "Memory":
        other = Memory(self.num_nodes, self.dim, dtype=self.dtype)
        other._state = self._state.copy()
        other._written = (None if self._written is None
                          else self._written.copy())
        other.last_update = self.last_update.copy()
        return other

    def view(self) -> "MemoryView":
        """Open a one-batch flush view over this store."""
        return MemoryView(self)


class MemoryView:
    """One batch's differentiable window onto a :class:`Memory` store.

    * :meth:`gather` — in-graph rows for arbitrary node ids (embedding
      lookups, contrast subgraph readouts);
    * :meth:`write` — route updated rows (the memory updater's output)
      into the view so later gathers see them;
    * :meth:`current_rows` — detached numpy rows (raw-message staging);
    * :meth:`persist` — store the batch's final values back, detached.

    Written rows live in a small ``(K, dim)`` in-graph tensor keyed by a
    sorted node-id array and gathers overlay them onto detached store
    rows: gradients reach exactly the written rows, nothing is graph-sized.
    """

    def __init__(self, store: Memory):
        self.store = store
        self._delta_nodes: np.ndarray | None = None   # sorted unique ids
        self._delta_rows: Tensor | None = None        # (K, dim), in-graph

    @property
    def shape(self) -> tuple[int, int]:
        return (self.store.num_nodes, self.store.dim)

    @property
    def touched(self) -> np.ndarray:
        if self._delta_nodes is None:
            return np.empty(0, dtype=np.int64)
        return self._delta_nodes

    def _delta_positions(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(hit_mask, delta_pos)`` of ``nodes`` within the delta rows."""
        delta = self._delta_nodes
        pos = np.searchsorted(delta, nodes)
        pos = np.minimum(pos, len(delta) - 1)
        hit = delta[pos] == nodes
        return hit, pos

    def gather(self, nodes: np.ndarray) -> Tensor:
        nodes = np.asarray(nodes, dtype=np.int64)
        base = Tensor(self.store.rows(nodes))
        if self._delta_nodes is None or len(nodes) == 0:
            return base
        hit, pos = self._delta_positions(nodes)
        # No hit.any() short-circuit: the op stream must depend only on
        # whether delta rows exist at all (a per-step key degree of
        # freedom), not on which nodes this batch happens to overlap —
        # otherwise replay-compiled steps mismatch whenever the overlap
        # pattern flips.  The empty-hit ops gather and scatter 0 rows.
        rows = F.embedding_lookup(self._delta_rows, pos[hit])
        return F.scatter_rows(base, np.flatnonzero(hit), rows)

    def write(self, nodes: np.ndarray, rows: Tensor) -> None:
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(nodes) == 0:
            return
        if self._delta_nodes is None:
            order = np.argsort(nodes, kind="stable")
            ordered = nodes[order]
            if (ordered[1:] == ordered[:-1]).any():
                raise ValueError("memory write requires unique node ids")
            self._delta_nodes = ordered
            self._delta_rows = (rows if np.array_equal(order,
                                                       np.arange(len(nodes)))
                                else F.embedding_lookup(rows, order))
            return
        # Later writes merge: union the key set, keep un-rewritten delta
        # rows in-graph, overlay the new rows.
        union = np.union1d(self._delta_nodes, nodes)
        merged = self.gather(union)
        new_pos = np.searchsorted(union, nodes)
        self._delta_nodes = union
        self._delta_rows = F.scatter_rows(merged, new_pos, rows)

    def current_rows(self, nodes: np.ndarray) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        out = self.store.rows(nodes)
        if self._delta_nodes is None or len(nodes) == 0:
            return out
        hit, pos = self._delta_positions(nodes)
        if hit.any():
            out[hit] = self._delta_rows.data[pos[hit]]
        return out

    def persist(self) -> None:
        if self._delta_nodes is not None:
            self.store.persist_rows(self._delta_nodes,
                                    np.asarray(self._delta_rows.data,
                                               dtype=self.store.dtype))


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

    def __len__(self) -> int:
        return len(self.nodes)

    def last_per_node(self) -> tuple[np.ndarray, np.ndarray]:
        """``(unique_sorted_nodes, row_of_last_message_per_node)``."""
        uniq, inverse = np.unique(self.nodes, return_inverse=True)
        last = np.zeros(len(uniq), dtype=np.int64)
        np.maximum.at(last, inverse, np.arange(len(self.nodes), dtype=np.int64))
        return uniq, last

    def groups_per_node(self) -> tuple[np.ndarray, np.ndarray]:
        """``(unique_sorted_nodes, group_index_per_row)`` for mean pooling."""
        uniq, inverse = np.unique(self.nodes, return_inverse=True)
        return uniq, inverse


class RawMessageStore:
    """Pending raw messages, flushed at the start of the next batch.

    Following the reference TGN implementation, messages generated by
    batch ``k`` update the memory inside batch ``k+1``'s graph so the
    message function and memory updater receive gradients.  Staging is
    struct-of-arrays: each :meth:`stage` call appends one block of flat
    numpy arrays (no per-event Python objects), and :meth:`pop_all`
    concatenates the blocks into one :class:`StagedMessages`.  With the
    ``last`` aggregator only the most recent row per node is consumed at
    flush time; with ``mean`` all rows are pooled per node.
    """

    def __init__(self, keep_all: bool = False):
        self.keep_all = keep_all
        self._blocks: list[StagedMessages] = []
        self._num_rows = 0

    def stage(self, nodes: np.ndarray, self_state: np.ndarray,
              other_state: np.ndarray, delta_t: np.ndarray,
              time: np.ndarray, event_ids: np.ndarray,
              edge_feat: np.ndarray | None = None) -> None:
        """Queue one batch's raw messages as flat arrays."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(nodes) == 0:
            return
        block = StagedMessages(
            nodes=nodes,
            self_state=np.asarray(self_state),
            other_state=np.asarray(other_state),
            delta_t=np.asarray(delta_t, dtype=np.float64),
            time=np.asarray(time, dtype=np.float64),
            event_ids=np.asarray(event_ids, dtype=np.int64),
            edge_feat=None if edge_feat is None else np.asarray(edge_feat),
        )
        self._blocks.append(block)
        self._num_rows += len(nodes)

    def pop_all(self) -> StagedMessages | None:
        """Concatenate and clear all staged blocks (None when empty)."""
        staged = self.peek_all()
        self.clear()
        return staged

    def peek_all(self) -> StagedMessages | None:
        """Concatenated staged blocks *without* clearing them.

        The serving snapshotter uses this to persist pending messages
        while the live store keeps owning them.
        """
        if not self._blocks:
            return None
        blocks = self._blocks
        if len(blocks) == 1:
            return blocks[0]
        return StagedMessages(
            nodes=np.concatenate([b.nodes for b in blocks]),
            self_state=np.concatenate([b.self_state for b in blocks]),
            other_state=np.concatenate([b.other_state for b in blocks]),
            delta_t=np.concatenate([b.delta_t for b in blocks]),
            time=np.concatenate([b.time for b in blocks]),
            event_ids=np.concatenate([b.event_ids for b in blocks]),
            edge_feat=_concat_edge_feats(blocks),
        )

    def __len__(self) -> int:
        """Number of staged message rows."""
        return self._num_rows

    def clear(self) -> None:
        self._blocks = []
        self._num_rows = 0


def _concat_edge_feats(blocks: list[StagedMessages]) -> np.ndarray | None:
    """Concatenate per-block edge features; all-None stays None.

    Mixed None/array blocks (an ``attach()`` swapped a featureless stream
    for a featured one mid-stage) substitute zero rows for the None
    blocks.
    """
    feats = [b.edge_feat for b in blocks]
    if all(f is None for f in feats):
        return None
    width = next(f.shape[1] for f in feats if f is not None)
    return np.concatenate([
        np.zeros((len(b.nodes), width)) if f is None else f
        for b, f in zip(blocks, feats)])
