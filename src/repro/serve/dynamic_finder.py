"""Append-only temporal adjacency for live serving.

:class:`DynamicNeighborFinder` answers ``batch_most_recent`` — the one
question the encoder asks: the newest ``count`` neighbours of each row
before its query time, as ragged
:class:`~repro.graph.neighbor_finder.NeighborSlots` — on a graph that
keeps growing while queries are served.  It is **not** a drop-in
:class:`~repro.graph.neighbor_finder.NeighborFinder`: it has no flat CSR
columns and no ``batch_before``, so a subgraph sampler pointed at it
fails on ``batch_before`` by name.  Sampling wants a static finder built
over the events (``NeighborFinder(stream)``).

Internally it is a two-level LSM-style structure:

* **base** — a compacted flat CSR (``indptr`` / ``neighbors`` / ``times``
  / ``event_ids``), identical to a freshly built ``NeighborFinder``;
* **delta** — an append-only buffer of recently ingested events, lowered
  into a small CSR of its own (with *global* event ids) the first time a
  query arrives after an append.

Appends are O(batch); a query the ring below cannot answer touches the
base CSR plus a delta the size of the un-compacted tail;
:meth:`~DynamicNeighborFinder.compact` (triggered automatically once the
delta outgrows ``compaction_threshold`` events) merges the delta into the
base in one vectorized O(E) pass.  Live events are time-monotone (every
appended timestamp is >= everything already indexed), so every delta
entry of a node is newer than every base entry of it; the answer is
bit-identical to a ``NeighborFinder`` rebuilt from scratch over the
concatenated event list — the property :mod:`tests.test_serve` asserts.

Compaction can also run **off the request path**: the job API splits the
merge into :meth:`compaction_job` (snapshot the immutable base + lowered
delta, under the service lock), :meth:`build_compaction` (the O(E) merge,
over the snapshot only — no lock, readers keep serving the old
generation), and :meth:`commit_compaction` (an atomic pointer swap that
installs the merged CSR and drops exactly the delta blocks the job
covered; events appended mid-build stay in the delta).
:class:`BackgroundCompactor` runs that cycle on a daemon thread so ingest
p99 no longer pays the merge pause — queries are bit-identical either
way, the generation swap only changes *where* entries are stored.

**The most-recent ring.**  The encoder asks one question on every pass:
the newest ``count`` neighbours of each row before its query time.  Next
to the CSRs the finder keeps, per node *that has history*, a ring of its
newest ``W`` entries (``W`` = twice the encoder's ``n_neighbors``, a
fixed multiple rather than a setting: up to ``n_neighbors`` entries tied
at or after a query time still leave a full answer in the ring):

* ``slot_of[node]`` (``int32``, the ``TGNMemory.assoc`` / ``RowCache``
  idiom) maps a node to its ring row; nodes without history map to row 0,
  an all-zero row of degree 0 whose newest time is ``-inf`` — so a query
  needs no "is it known" branch and a history-less row reads exactly the
  zero dummy slot the CSR query gives it;
* ``neighbors`` / ``times`` / ``event_ids`` are ``(rows, W)`` arrays in
  which entry number ``p`` of a node's whole history (0-based, base and
  delta alike) lives in column ``p mod W``; ``degree[row]`` is the number
  of entries the node ever had and ``newest[row]`` the time of the last;
* rows are handed out in order of first appearance and the arrays grow by
  doubling (``np.empty``: untouched rows cost no resident page), so memory
  follows the active nodes, not the node space.

The ring is filled from the base CSR at construction and advanced inside
:meth:`DynamicNeighborFinder.append` by one stable sort of the block's
interleaved endpoints.  **Answerability rule:** a node's history is in
time order, so the entries at or after a query time ``ts`` are its newest
ones.  For a row of degree ``d`` let ``m`` be the number of its *held*
entries at or after ``ts`` (the per-row time cut); the row is answerable
iff ``d <= W`` (the ring holds its whole history) or
``m + min(d - m, count) <= W`` (the ring holds the cut entries and the
newest ``count`` before them, so nothing at or after ``ts`` hides behind
the ring).  :meth:`~DynamicNeighborFinder.batch_most_recent` answers a
whole ``(nodes, ts, count)`` batch from the ring iff ``1 <= count <= W``
and every row is answerable; otherwise it cuts the whole batch in the
base and delta CSRs.  A row whose held entries are all cut reads the
null row's zero slot, like a row without history.  The answer holds the
same entries in the same order as the CSR path.  A query stamped after
every event cuts nothing, so the cut costs one comparison per row until
some row is that late.  Compaction (inline or background) and snapshots
never touch the ring: a merge only changes *where* the CSR stores an
entry, not which entries a node has, and a restored finder refills the
ring from its base and replayed delta.  Like every other piece of finder
state the ring is not thread-safe; the service lock serialises it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs as _obs
from ..graph.events import EventStream
from ..graph.neighbor_finder import (NeighborFinder, NeighborSlots,
                                     build_temporal_csr, ragged_layout)

__all__ = ["BackgroundCompactor", "CompactionJob", "DynamicNeighborFinder",
           "IngestError"]


class IngestError(ValueError):
    """An appended event block violates the live-stream invariants."""


@dataclass
class CompactionJob:
    """One generation's merge work: an immutable snapshot plus its result.

    ``base`` and ``delta`` are the CSRs the job merges; ``blocks`` /
    ``events`` record how much of the append buffer the delta covered, so
    the commit drops exactly those blocks and keeps anything appended
    while the build ran.
    """

    base: NeighborFinder
    delta: NeighborFinder
    blocks: int
    events: int
    merged: tuple | None = field(default=None, repr=False)


def merge_csr(base: NeighborFinder, delta: NeighborFinder,
              num_nodes: int) -> tuple:
    """Merge two per-node-sorted CSRs in one vectorized pass.

    Per node the merged slice is base entries followed by delta entries —
    already the (time, event id) order a from-scratch rebuild produces
    (delta timestamps are >= every base timestamp), so no re-sort is
    needed.  Pure over its inputs: safe to run without any lock while
    readers keep using ``base``.
    """
    bip, dip = np.asarray(base.indptr), delta.indptr
    b_deg, d_deg = np.diff(bip), np.diff(dip)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(b_deg + d_deg, out=indptr[1:])
    nodes_b = np.repeat(np.arange(num_nodes), b_deg)
    nodes_d = np.repeat(np.arange(num_nodes), d_deg)
    dest_b = (indptr[nodes_b]
              + np.arange(len(nodes_b), dtype=np.int64) - bip[nodes_b])
    dest_d = (indptr[nodes_d] + b_deg[nodes_d]
              + np.arange(len(nodes_d), dtype=np.int64) - dip[nodes_d])
    merged = {}
    for name in ("neighbors", "times", "event_ids"):
        b_col = np.asarray(getattr(base, name))
        d_col = getattr(delta, name)
        out = np.empty(len(b_col) + len(d_col), dtype=b_col.dtype)
        out[dest_b] = b_col
        out[dest_d] = d_col
        merged[name] = out
    return (indptr, merged["neighbors"], merged["times"],
            merged["event_ids"])


class _RecentRing:
    """The newest ``width`` history entries of every node that has any.

    Layout and invariants are in the module docstring.  Row 0 is the
    null row every history-less node maps to.
    """

    _ARRAYS = ("neighbors", "times", "event_ids", "degree", "newest")

    def __init__(self, base: NeighborFinder, width: int):
        if width < 1:
            raise ValueError("ring width must be >= 1")
        self.width = width
        self.slot_of = np.zeros(base.num_nodes, dtype=np.int32)
        self.neighbors = np.zeros((1, width), dtype=np.int64)
        self.times = np.zeros((1, width), dtype=np.float64)
        self.event_ids = np.zeros((1, width), dtype=np.int64)
        self.degree = np.zeros(1, dtype=np.int64)
        self.newest = np.full(1, -np.inf)
        self.used = 1                                   # rows handed out
        self._answered, self._declined = (
            _obs.counter("repro_serve_neighbor_queries_total",
                         labels={"path": path}, replace=True,
                         help="encoder neighbour queries by answering path")
            for path in ("ring", "csr"))
        self._rows_gauge = _obs.gauge(
            "repro_serve_neighbor_ring_slots", replace=True,
            help="ring rows in use (nodes with history)")
        # A CSR is the sorted form `_absorb` wants: grouped by node,
        # chronological within a node.
        indptr = np.asarray(base.indptr)
        self._absorb(np.repeat(np.arange(base.num_nodes), np.diff(indptr)),
                     np.asarray(base.neighbors), np.asarray(base.times),
                     np.asarray(base.event_ids))

    def _reserve(self, rows: int) -> None:
        """Make room for ``rows`` ring rows, at least doubling."""
        if rows <= len(self.degree):
            return
        capacity = max(rows, 2 * len(self.degree), 64)
        for name in self._ARRAYS:
            old = getattr(self, name)
            new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            new[:self.used] = old[:self.used]
            setattr(self, name, new)

    def push(self, src: np.ndarray, dst: np.ndarray, timestamps: np.ndarray,
             event_ids: np.ndarray) -> None:
        """Advance the ring by one validated, time-sorted event block."""
        # Interleaved (src0, dst0, src1, dst1, ...) so one stable sort by
        # node leaves each node's entries in event order.
        endpoints = np.empty(2 * len(src), dtype=np.int64)
        endpoints[0::2] = src
        endpoints[1::2] = dst
        order = np.argsort(endpoints, kind="stable")
        event = order >> 1
        peers = np.where(order & 1, src[event], dst[event])
        self._absorb(endpoints[order], peers, timestamps[event],
                     event_ids[event])

    def _absorb(self, nodes: np.ndarray, peers: np.ndarray,
                times: np.ndarray, event_ids: np.ndarray) -> None:
        """Append entries grouped by node, chronological within a node."""
        total = len(nodes)
        if total == 0:
            return
        opens = np.ones(total, dtype=bool)
        np.not_equal(nodes[1:], nodes[:-1], out=opens[1:])
        first = np.flatnonzero(opens)
        counts = np.diff(first, append=total)
        owners = nodes[first]
        rows = self.slot_of[owners]
        fresh = np.flatnonzero(rows == 0)
        if len(fresh):
            self._reserve(self.used + len(fresh))
            taken = np.arange(self.used, self.used + len(fresh),
                              dtype=np.int32)
            rows[fresh] = taken
            self.slot_of[owners[fresh]] = taken
            self.degree[taken] = 0
            self.used += len(fresh)
            self._rows_gauge.set(self.used - 1)
        before = self.degree[rows]
        after = before + counts
        # Number of each entry in its node's whole history.  Only the last
        # `width` of a node's run can still be in the ring afterwards.
        # Dropping the rest is what makes the scatter below correct, not
        # an optimisation: a run longer than `width` would write one ring
        # cell twice, and numpy does not promise which value wins an
        # assignment with repeated indices.
        position = np.arange(total) + np.repeat(before - first, counts)
        keep = np.flatnonzero(position >= np.repeat(after - self.width,
                                                    counts))
        position = position[keep]
        flat = (np.repeat(rows.astype(np.int64) * self.width, counts)[keep]
                + position % self.width)
        self.neighbors.reshape(-1)[flat] = peers[keep]
        self.times.reshape(-1)[flat] = times[keep]
        self.event_ids.reshape(-1)[flat] = event_ids[keep]
        self.degree[rows] = after
        self.newest[rows] = times[first + counts - 1]

    def slots(self, nodes: np.ndarray, ts: np.ndarray,
              count: int) -> NeighborSlots | None:
        """Ragged newest-``count`` slots, or ``None`` (answerability rule)."""
        width = self.width
        ring_rows = self.slot_of[nodes]
        # Entries before `ts`: the whole history less its newest `cut`
        # entries, those at or after `ts` - which only a row whose newest
        # entry is that late can have.
        before = self.degree[ring_rows]
        late = np.flatnonzero(self.newest[ring_rows] >= ts)
        answerable = 0 < count <= width
        if answerable and len(late):
            degree = before[late]
            held = np.arange(width) < np.minimum(degree, width)[:, None]
            cut = ((self.times[ring_rows[late]] >= ts[late, None])
                   & held).sum(axis=1)
            before[late] = degree - cut
            answerable = not ((degree > width)
                              & (cut + np.minimum(degree - cut, count)
                                 > width)).any()
        if not answerable:
            self._declined.inc()
            return None
        self._answered.inc()
        valid = np.minimum(before, count)
        # A row with nothing before `ts` keeps one slot: a column of the
        # all-zero null row, whether or not the row has a history at all.
        ring_rows[valid == 0] = 0
        rows, starts, offset = ragged_layout(valid)
        position = offset + (before - valid)[rows]
        flat = ((ring_rows.astype(np.int64) * width)[rows]
                + position % width)
        return NeighborSlots(
            rows=rows, starts=starts,
            neighbors=self.neighbors.reshape(-1)[flat],
            times=self.times.reshape(-1)[flat],
            event_ids=self.event_ids.reshape(-1)[flat],
            dummy=(valid == 0)[rows])


class DynamicNeighborFinder:
    """Live-updatable most-recent-neighbour index (see module docstring).

    Parameters
    ----------
    base:
        The starting adjacency — an :class:`EventStream` (indexed with
        event ids ``0..n-1``) or an already-built :class:`NeighborFinder`.
    compaction_threshold:
        Delta size (in events) beyond which an append triggers an
        automatic :meth:`compact`.  ``None`` disables auto-compaction.
    ring_width:
        Entries kept per node in the most-recent ring; the service passes
        twice its encoder's ``n_neighbors`` (this default is twice the
        encoder's default).
    """

    def __init__(self, base: EventStream | NeighborFinder,
                 compaction_threshold: int | None = 4096,
                 ring_width: int = 20):
        if isinstance(base, EventStream):
            base = NeighborFinder(base)
        self._base = base
        self._ring = _RecentRing(base, ring_width)
        self.num_nodes = base.num_nodes
        self.compaction_threshold = compaction_threshold
        # Raw append buffers (event granularity, not CSR-entry granularity).
        self._buf_src: list[np.ndarray] = []
        self._buf_dst: list[np.ndarray] = []
        self._buf_ts: list[np.ndarray] = []
        self._buf_eid: list[np.ndarray] = []
        self._delta: NeighborFinder | None = None   # lowered delta CSR
        self._delta_events = 0
        self._dirty = False
        self.compactions = _obs.counter(
            "repro_serve_graph_compactions_total", replace=True,
            help="delta merges committed into the base CSR")
        # When set (by BackgroundCompactor.attach), threshold crossings
        # signal the hook instead of compacting inline.
        self.compaction_hook = None
        # The CSR is per-node sorted, so the global max needs one full
        # scan (construction-time only).
        base_times = np.asarray(base.times)
        self._t_max = float(base_times.max()) if len(base_times) else -np.inf
        base_eids = base.event_ids
        self._next_event_id = (int(np.asarray(base_eids).max()) + 1
                               if len(base_eids) else 0)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        """Total events indexed (base + delta), by id high-water mark."""
        return self._next_event_id

    @property
    def delta_events(self) -> int:
        """Events appended since the last compaction."""
        return self._delta_events

    def append(self, src: np.ndarray, dst: np.ndarray,
               timestamps: np.ndarray,
               event_ids: np.ndarray | None = None) -> np.ndarray:
        """Index a block of new events; returns their global event ids.

        Live-stream invariants are enforced before anything is mutated:
        node ids must fit the node space, timestamps must be finite,
        non-decreasing and >= every timestamp already indexed, and
        explicit ``event_ids`` must continue the global sequence.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if not (len(src) == len(dst) == len(timestamps)):
            raise IngestError("src, dst and timestamps must have equal length")
        if len(src) == 0:
            return np.empty(0, dtype=np.int64)
        if src.min() < 0 or dst.min() < 0 \
                or max(src.max(), dst.max()) >= self.num_nodes:
            raise IngestError(
                f"event endpoints must lie in [0, {self.num_nodes}); the "
                "node space is fixed at service construction")
        # NaN compares false both ways, so the order checks below would
        # wave it through (and one +inf would outlaw every later block).
        if not np.isfinite(timestamps).all():
            raise IngestError("appended timestamps must be finite")
        if np.any(np.diff(timestamps) < 0):
            raise IngestError("appended timestamps must be non-decreasing")
        if timestamps[0] < self._t_max:
            raise IngestError(
                f"appended timestamps must be >= {self._t_max} (the newest "
                "indexed event); live ingestion is time-monotone")
        if event_ids is None:
            event_ids = np.arange(self._next_event_id,
                                  self._next_event_id + len(src),
                                  dtype=np.int64)
        else:
            event_ids = np.asarray(event_ids, dtype=np.int64)
            expected = np.arange(self._next_event_id,
                                 self._next_event_id + len(src))
            if not np.array_equal(event_ids, expected):
                raise IngestError(
                    f"event ids must continue the global sequence at "
                    f"{self._next_event_id}")
        self._buf_src.append(src)
        self._buf_dst.append(dst)
        self._buf_ts.append(timestamps)
        self._buf_eid.append(event_ids)
        self._ring.push(src, dst, timestamps, event_ids)
        self._delta_events += len(src)
        self._dirty = True
        self._t_max = float(timestamps[-1])
        self._next_event_id += len(src)
        if self.compaction_threshold is not None \
                and self._delta_events >= self.compaction_threshold:
            if self.compaction_hook is not None:
                # Off-request-path mode: signal the background compactor
                # instead of paying the merge inside this append.
                self.compaction_hook()
            else:
                self.compact()
        return event_ids

    def _refresh_delta(self) -> NeighborFinder | None:
        """Lower buffered appends into the delta CSR (lazy, amortized)."""
        if self._dirty:
            self._delta = NeighborFinder.from_arrays(*build_temporal_csr(
                np.concatenate(self._buf_src), np.concatenate(self._buf_dst),
                np.concatenate(self._buf_ts), np.concatenate(self._buf_eid),
                self.num_nodes))
            self._dirty = False
        return self._delta

    def compact(self) -> None:
        """Merge the delta CSR into the base CSR, synchronously."""
        job = self.compaction_job()
        if job is None:
            return
        self.build_compaction(job)
        self.commit_compaction(job)

    # ------------------------------------------------------------------
    # generation-swapped compaction (the off-request-path cycle)
    # ------------------------------------------------------------------
    def compaction_job(self) -> CompactionJob | None:
        """Snapshot the current generation's merge work (hold the lock).

        The returned job references the *current* base and a lowered
        delta covering every buffered block — both immutable from here
        on (appends only add new blocks; the base is only replaced by a
        commit, which checks the job is still current).
        """
        delta = self._refresh_delta()
        if delta is None or self._delta_events == 0:
            return None
        return CompactionJob(base=self._base, delta=delta,
                             blocks=len(self._buf_src),
                             events=self._delta_events)

    def build_compaction(self, job: CompactionJob) -> CompactionJob:
        """Run the O(E) merge over the job's snapshot — **no lock needed**.

        Readers keep querying the old base + delta while this runs; the
        result is installed by :meth:`commit_compaction`.
        """
        job.merged = merge_csr(job.base, job.delta, self.num_nodes)
        return job

    def commit_compaction(self, job: CompactionJob) -> bool:
        """Atomically swap the merged CSR in (hold the lock).

        Returns ``False`` (no-op) when the job was superseded — another
        compaction committed first, so its base snapshot is stale.
        Blocks appended while the build ran stay in the delta buffer.
        """
        if job.merged is None:
            raise RuntimeError("commit_compaction before build_compaction")
        if self._base is not job.base:
            return False
        self._base = NeighborFinder.from_arrays(*job.merged)
        del self._buf_src[:job.blocks]
        del self._buf_dst[:job.blocks]
        del self._buf_ts[:job.blocks]
        del self._buf_eid[:job.blocks]
        self._delta_events -= job.events
        self._delta = None
        self._dirty = bool(self._buf_src)
        self.compactions.inc()
        return True

    # ------------------------------------------------------------------
    # the encoder's neighbour query
    # ------------------------------------------------------------------
    def batch_most_recent(self, nodes: np.ndarray, ts: np.ndarray,
                          count: int) -> NeighborSlots:
        """The newest ``count`` neighbours of each row before its time.

        The ring answers when it can (the answerability rule in the
        module docstring).  Otherwise the rows are cut in the base and
        the delta CSR: every delta entry of a node is newer than all its
        base entries, so a row takes its newest ``min(delta, count)``
        delta entries and fills the rest from the newest base entries.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        slots = self._ring.slots(nodes, ts, count)
        if slots is not None:
            return slots
        delta = self._refresh_delta()
        if delta is None:
            return self._base.batch_most_recent(nodes, ts, count)
        b_starts, b_ends = self._base.batch_before(nodes, ts)
        d_starts, d_ends = delta.batch_before(nodes, ts)
        from_delta = np.minimum(d_ends - d_starts, count)
        from_base = np.minimum(b_ends - b_starts, count - from_delta)
        valid = from_base + from_delta
        rows, starts, offset = ragged_layout(valid)
        dummy = (valid == 0)[rows]
        in_base = offset < from_base[rows]
        in_delta = ~in_base & ~dummy
        b_flat = (b_ends - from_base)[rows[in_base]] + offset[in_base]
        d_flat = (d_ends - valid)[rows[in_delta]] + offset[in_delta]
        columns = []
        for name, dtype in (("neighbors", np.int64), ("times", np.float64),
                            ("event_ids", np.int64)):
            out = np.zeros(len(rows), dtype=dtype)
            out[in_base] = getattr(self._base, name)[b_flat]
            out[in_delta] = getattr(delta, name)[d_flat]
            columns.append(out)
        return NeighborSlots(rows, starts, *columns, dummy)


class BackgroundCompactor:
    """Daemon thread running the snapshot → build → commit cycle.

    ``lock`` serialises the snapshot and the commit against the owner's
    readers/writers (the service passes its engine lock); the O(E) merge
    itself runs with the lock **released**, so ingest and queries proceed
    against the old generation while a new base CSR is built.

    :meth:`attach` points the finder's threshold hook here, so an append
    that crosses ``compaction_threshold`` wakes the thread instead of
    paying the merge inline — the lever that collapses ingest p99 toward
    p50 (``BENCH_serve.json``).
    """

    def __init__(self, finder: DynamicNeighborFinder, lock,
                 name: str = "repro-serve-compactor"):
        self.finder = finder
        self._lock = lock
        self._wake = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._closed = False
        # generations — commits performed by this thread; superseded —
        # builds discarded at commit time.
        self.counters = _obs.owned_counters(
            "repro_serve_compactor", ("generations", "superseded"),
            help="background compactor {} count")
        self._thread = threading.Thread(target=self._run, name=name,
                                        daemon=True)
        self._thread.start()

    @property
    def idle(self) -> bool:
        """No requested cycle is pending or running."""
        return self._idle.is_set()

    def attach(self) -> "BackgroundCompactor":
        self.finder.compaction_hook = self.notify
        return self

    def notify(self) -> None:
        """Request a compaction cycle (idempotent, non-blocking)."""
        self._idle.clear()
        self._wake.set()

    def _run(self) -> None:
        while True:
            self._wake.wait()
            self._wake.clear()
            self._idle.clear()
            if self._closed:
                self._idle.set()
                return
            try:
                with self._lock:
                    job = self.finder.compaction_job()
                if job is not None:
                    self.finder.build_compaction(job)
                    with self._lock:
                        committed = self.finder.commit_compaction(job)
                        self.counters["generations" if committed
                                      else "superseded"].inc()
            finally:
                if not self._wake.is_set():
                    self._idle.set()

    def drain(self, timeout: float = 30.0) -> bool:
        """Block until every requested cycle has run (tests/benchmarks)."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            if not self._idle.wait(remaining):
                return False
            # A wake posted in the set-idle race window means another
            # cycle is still owed — keep waiting.
            if not self._wake.is_set():
                return True
            time.sleep(0.001)

    def close(self, timeout: float = 5.0) -> None:
        """Stop the thread; pending work is drained first."""
        if self._closed:
            return
        self.drain(timeout)
        self._closed = True
        self.finder.compaction_hook = None
        self._wake.set()
        self._thread.join(timeout)
