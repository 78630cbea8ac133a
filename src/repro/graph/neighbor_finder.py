"""Temporal neighbourhood queries over a flat CSR adjacency.

:class:`NeighborFinder` answers "which events involved node *i* strictly
before time *t*" — the primitive behind the DGNN embedding module (paper
Eq. 1, set ``N_i^t``) and behind both CPDG samplers (sets ``T_i^t`` of
paper §IV-A).

The adjacency is one flat CSR structure (``indptr`` / ``neighbors`` /
``times`` / ``event_ids``) built with vectorized ``lexsort`` —
construction touches no per-event Python loop and queries come in two
flavours:

* per-node (``before`` / ``most_recent`` / ``degree``) — thin
  ``O(log deg)`` slices of the CSR arrays, for single-root callers and
  as the oracle of the batch queries;
* batch-first (``batch_before`` / ``batch_most_recent`` /
  ``batch_last_update``) — operate on whole ``(nodes, ts)`` arrays via a
  vectorized segment binary search, so cost scales with event count
  rather than Python interpreter speed.

The uniform-history control arm of prior DGNN work (TGAT/TGN) is not a
finder query: ``experiments/ablations.py`` emulates it with the η-BFS
sampler at ``tau=1e6``, where the softmax over temporal scores is flat
(``EtaBFSSampler(probability="uniform")`` draws the exact uniform law,
but no experiment runs it).

:meth:`NeighborFinder.from_arrays` wraps CSR arrays built elsewhere —
the serving finder's delta of buffered appends, its compacted base and
a restored snapshot's base.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .events import EventStream

__all__ = ["NeighborFinder", "NeighborSlots", "build_temporal_csr",
           "most_recent_slots", "segment_cut"]


def build_temporal_csr(src: np.ndarray, dst: np.ndarray,
                       timestamps: np.ndarray, event_ids: np.ndarray,
                       num_nodes: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build ``(indptr, neighbors, times, event_ids)`` for an event block.

    Each event is indexed under both endpoints; per-node slices come out
    sorted by time with event order breaking ties (the invariant every
    :class:`NeighborFinder` query relies on).  ``event_ids`` may be any
    increasing int64 array — live-ingestion deltas pass *global* ids so a
    delta CSR can be merged into a larger one later.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    timestamps = np.asarray(timestamps, dtype=np.float64)
    event_ids = np.asarray(event_ids, dtype=np.int64)
    endpoints = np.concatenate([src, dst])
    peers = np.concatenate([dst, src])
    eids = np.concatenate([event_ids, event_ids])
    order = np.lexsort((eids, endpoints))
    counts = np.bincount(endpoints, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return (indptr, peers[order], np.tile(timestamps, 2)[order], eids[order])


def segment_cut(values: np.ndarray, indptr: np.ndarray, nodes: np.ndarray,
                thresholds: np.ndarray,
                starts: np.ndarray | None = None) -> np.ndarray:
    """First flat index per node whose ``values`` entry is >= threshold.

    A manual binary search over all rows at once (``O(log max_deg)``
    numpy passes); ``values`` must be non-decreasing within each node's
    CSR slice — true of both ``times`` and ``event_ids``.
    """
    lo = (indptr[nodes] if starts is None else starts).copy()
    hi = indptr[nodes + 1].copy()
    if len(values) and len(nodes):
        max_gap = int((hi - lo).max())
        # Invariant: the cut point lies in [lo, hi]; once lo == hi the
        # row is settled and further iterations leave it unchanged, so
        # a fixed ceil(log2) iteration count needs no active mask.
        for _ in range(max(max_gap, 1).bit_length()):
            mid = (lo + hi) >> 1
            go_right = (values[np.minimum(mid, len(values) - 1)]
                        < thresholds) & (lo < hi)
            lo = np.where(go_right, mid + 1, lo)
            hi = np.where(go_right, hi, np.maximum(mid, lo))
    return lo


class NeighborSlots(NamedTuple):
    """The neighbour slots of a query batch, ragged: no padding.

    Slots of all query rows lie back to back, sorted by row; row ``i``
    owns ``[starts[i], starts[i + 1])`` and every row owns at least one.
    ``dummy`` marks the one slot a row *without* history keeps (neighbour
    0 at time 0, exactly what a padded slot holds) so that no run is
    empty; consumers zero its edge features.
    """

    rows: np.ndarray        # (S,) query row of each slot, non-decreasing
    starts: np.ndarray      # (B,) first slot of each query row
    neighbors: np.ndarray   # (S,)
    times: np.ndarray       # (S,)
    event_ids: np.ndarray   # (S,)
    dummy: np.ndarray       # (S,) bool


def most_recent_slots(finder, nodes: np.ndarray, ts: np.ndarray,
                      count: int) -> NeighborSlots:
    """``finder.batch_most_recent`` with the padded slots dropped.

    ``finder`` is anything with the padded batch query (the static CSR
    finder or the serving layer's live one).  Most rows of a sparse
    interaction graph have fewer than ``count`` events, so the encoder
    projects and attends over far fewer key rows than ``B * count``.

    A finder that can produce the ragged slots itself (the dynamic one,
    from its most-recent ring) is asked first through ``recent_slots``;
    it returns ``None`` for a batch it cannot answer that way.
    """
    recent_slots = getattr(finder, "recent_slots", None)
    if recent_slots is not None:
        slots = recent_slots(nodes, ts, count)
        if slots is not None:
            return slots
    neighbors, times, event_ids, mask = finder.batch_most_recent(nodes, ts,
                                                                 count)
    keep = ~mask
    keep[:, 0] |= mask.all(axis=1)
    per_row = keep.sum(axis=1)
    return NeighborSlots(
        rows=np.repeat(np.arange(len(per_row)), per_row),
        starts=np.cumsum(per_row) - per_row,
        neighbors=neighbors[keep], times=times[keep],
        event_ids=event_ids[keep], dummy=mask[keep])


class NeighborFinder:
    """Time-sorted CSR adjacency over an :class:`EventStream`.

    Every event ``(u, v, t)`` is indexed under both endpoints, matching the
    undirected interaction semantics of the paper's user-item graphs.
    ``indptr`` has ``num_nodes + 1`` entries; node ``i``'s history lives in
    the flat slice ``[indptr[i], indptr[i + 1])`` of ``neighbors`` /
    ``times`` / ``event_ids``, sorted by time (event order breaks ties).
    """

    def __init__(self, stream: EventStream):
        self.num_nodes = stream.num_nodes
        # Each event appears twice: once under src, once under dst.  The
        # stream is time-sorted, so sorting the doubled arrays by
        # (endpoint, event index) yields per-node slices sorted by time
        # with the same tie order the event list implies.
        (self._indptr, self._neighbors, self._times,
         self._event_ids) = build_temporal_csr(
            stream.src, stream.dst, stream.timestamps,
            np.arange(stream.num_events, dtype=np.int64), self.num_nodes)

    # ------------------------------------------------------------------
    # construction from raw CSR arrays
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, indptr: np.ndarray, neighbors: np.ndarray,
                    times: np.ndarray, event_ids: np.ndarray
                    ) -> "NeighborFinder":
        """Wrap pre-built CSR arrays (read-only views are fine).

        The arrays are adopted as-is — no copy, no re-sort: serving hands
        over a CSR it has just built (a delta, a compaction) or restored.
        """
        if len(neighbors) != len(times) or len(neighbors) != len(event_ids):
            raise ValueError("neighbors, times and event_ids must have "
                             "equal length")
        finder = cls.__new__(cls)
        finder.num_nodes = len(indptr) - 1
        finder._indptr = indptr
        finder._neighbors = neighbors
        finder._times = times
        finder._event_ids = event_ids
        return finder

    # ------------------------------------------------------------------
    # CSR views
    # ------------------------------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def neighbors(self) -> np.ndarray:
        return self._neighbors

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def event_ids(self) -> np.ndarray:
        return self._event_ids

    # ------------------------------------------------------------------
    # per-node queries (thin slices over the CSR arrays)
    # ------------------------------------------------------------------
    def _cut(self, node: int, t: float) -> tuple[int, int]:
        lo = int(self._indptr[node])
        hi = int(self._indptr[node + 1])
        return lo, lo + int(np.searchsorted(self._times[lo:hi], t, side="left"))

    def degree(self, node: int, t: float = np.inf) -> int:
        """Number of interactions of ``node`` strictly before ``t``."""
        lo, cut = self._cut(node, t)
        return cut - lo

    def before(self, node: int, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All ``(neighbors, times, event_ids)`` of events strictly before ``t``.

        This realises the paper's ``N_i^t`` / ``T_i^t`` in one call.
        """
        lo, cut = self._cut(node, t)
        return (self._neighbors[lo:cut],
                self._times[lo:cut],
                self._event_ids[lo:cut])

    def most_recent(self, node: int, t: float, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``count`` most recent events before ``t`` (paper Eq. 5 order).

        Returned in chronological order; fewer rows when the node has fewer
        interactions.
        """
        lo, cut = self._cut(node, t)
        lo = max(lo, cut - count)
        return (self._neighbors[lo:cut],
                self._times[lo:cut],
                self._event_ids[lo:cut])

    # ------------------------------------------------------------------
    # batch-first queries
    # ------------------------------------------------------------------
    def batch_before(self, nodes: np.ndarray, ts: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized cut-point query for a whole ``(nodes, ts)`` batch.

        Returns ``(starts, ends)`` such that row ``i``'s history strictly
        before ``ts[i]`` is the flat CSR slice
        ``neighbors[starts[i]:ends[i]]`` (and likewise ``times`` /
        ``event_ids``); ``ends - starts`` is the batched ``degree``.

        The search is a manual binary search over all rows at once —
        ``O(log max_deg)`` numpy passes instead of one Python iteration
        per row.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        starts = self._indptr[nodes]
        return starts, self._segment_cut(self._times, nodes, ts, starts)

    def _segment_cut(self, values: np.ndarray, nodes: np.ndarray,
                     thresholds: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Batched cut search over this CSR (see :func:`segment_cut`)."""
        return segment_cut(values, self._indptr, nodes, thresholds,
                           starts=starts)

    def batch_last_update(self, nodes: np.ndarray,
                          event_cut: int) -> np.ndarray:
        """Most recent event time per node among events with id < ``event_cut``.

        This is exactly the ``Memory.last_update`` value a chronological
        trainer holds when it reaches the batch starting at event
        ``event_cut`` (``touch`` keeps the max event time per node) — an
        oracle of the memory clock that needs no trainer state.  Nodes
        with no earlier event report 0.0, the reset value.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = self._indptr[nodes]
        cut = self._segment_cut(self._event_ids, nodes,
                                np.full(len(nodes), event_cut,
                                        dtype=np.int64), starts)
        has_history = cut > starts
        if not has_history.any():
            return np.zeros(len(nodes))
        prev = self._times[np.maximum(cut - 1, 0)]
        return np.where(has_history, np.maximum(prev, 0.0), 0.0)

    def batch_degree(self, nodes: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Batched :meth:`degree`: interactions strictly before each ``ts``."""
        starts, ends = self.batch_before(nodes, ts)
        return ends - starts

    def batch_most_recent(self, nodes: np.ndarray, ts: np.ndarray, count: int
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Padded batch variant of :meth:`most_recent`, fully vectorized.

        Returns ``(neighbors, times, event_ids, mask)`` with shapes
        ``(B, count)``; ``mask`` is True on *padded* (invalid) slots.
        Padding sits on the left so valid entries stay chronologically
        ordered on the right; padded slots hold zeros.
        """
        starts, ends = self.batch_before(nodes, ts)
        if len(self._neighbors) == 0:
            batch = len(starts)
            return (np.zeros((batch, count), dtype=np.int64),
                    np.zeros((batch, count), dtype=np.float64),
                    np.zeros((batch, count), dtype=np.int64),
                    np.ones((batch, count), dtype=bool))
        k = np.minimum(ends - starts, count)
        cols = np.arange(count, dtype=np.int64)
        # Column c of row i maps to flat slot ends[i] - count + c; only the
        # rightmost k[i] columns are in range.
        idx = ends[:, None] - count + cols[None, :]
        valid = cols[None, :] >= (count - k)[:, None]
        safe = np.where(valid, idx, 0)
        out_neighbors = np.where(valid, self._neighbors[safe], 0)
        out_times = np.where(valid, self._times[safe], 0.0)
        out_events = np.where(valid, self._event_ids[safe], 0)
        return out_neighbors, out_times, out_events, ~valid
