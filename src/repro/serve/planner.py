"""Micro-batching query planner + the array-backed embedding row cache.

Serving traffic arrives as many small ``embed`` / ``score`` requests; the
encoder wants one big batched pass.  :class:`MicroBatchPlanner` bridges
the two:

* concurrent callers enqueue their ``(nodes, ts)`` queries; the first
  arrival becomes the *leader* and drains the queue at once, running
  **one** batched ``compute`` per pass over the union of the queries
  pending at its start (deduplicated by ``(node, ts)``, at most
  :data:`MAX_PASS_ROWS` rows), distributing result rows back to each
  waiter.  There is no coalescing wait: callers that arrive during a
  pass queue behind it and share the next one, so under load requests
  coalesce on their own and at low load none waits for company;
* the leader loop also serialises all encoder access — the substrate is
  not thread-safe, and the planner is the single entry point the HTTP
  frontend and the in-process client share;
* a :class:`RowCache` short-cuts repeat queries.  One pass is a handful
  of array operations whatever the row count: ``lexsort`` on the exact
  ``(node, ts)`` keys → one ``lookup`` → one ``compute`` over the misses
  → one ``put`` → take.

**One freshness rule.**  An embedding of ``u`` is computed from the
memory of ``u`` *and of every temporal neighbour the encoder sampled for
it* (``N_u^t`` of the paper's Eq. 1, every hop) — its receptive field,
which ``compute`` hands back next to the rows.  A cached row is served
iff the query time is the same float64 value and the field's clock (the
touch counts the ingest path advances, summed over the field) has not
moved since the row was computed, so cached answers equal a cache-free
service's bit for bit.
Ingestion never walks the cache.

The planner is deliberately synchronous per caller (every ``embed`` call
returns its own rows); batching happens across *threads*, which is how
the stdlib HTTP frontend achieves coalescing under concurrent load.
"""

from __future__ import annotations

import threading

import numpy as np

from .. import obs as _obs

__all__ = ["MicroBatchPlanner", "RowCache"]


MAX_PASS_ROWS = 4096                # rows per pass; the rest wait a pass
_FREE = np.iinfo(np.int64).max      # LRU stamp of an unused slot


class RowCache:
    """At most one embedding row per node, in preallocated arrays.

    ``slot_of[node]`` is the node's slot (the ``TGNMemory.assoc`` idiom:
    a node-indexed map, no dicts); a node without a row maps to the
    *null slot* ``capacity``, whose NaN time equals no query's, so a pass
    needs no "is it cached" branch.  A slot holds the row, its exact
    float64 query time (a query of the same node at any other time,
    however close, is computed and replaces it), the ``width`` node ids
    of its receptive field (padded with the id one past the node space)
    with the field's clock at compute time, and an LRU ``stamp``.  Row
    and field storage is ``np.empty``: pages are touched only as slots
    fill.  When no slot is free, the least recently used eighth is
    evicted with one ``argpartition``.

    ``touch_count`` is the ingest path's per-node clock
    (:class:`~repro.serve.ingest.LiveIngestor`, one entry past the node
    space for the padding id); the cache only reads it.  Not
    thread-safe: the planner calls it under its execution lock, which
    ingestion shares.
    """

    def __init__(self, capacity: int, dim: int, width: int,
                 touch_count: np.ndarray, dtype=np.float64):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._touch_count = touch_count
        self.slot_of = np.full(len(touch_count), capacity, dtype=np.int64)
        self.rows = np.empty((capacity + 1, dim), dtype=dtype)
        self._field = np.empty((capacity + 1, width), dtype=np.int64)
        self._node_of = np.empty(capacity, dtype=np.int64)
        # What the null slot keeps: a field of padding ids, a zero clock
        # and a NaN time, which equals no query time (not even NaN).
        self._field[capacity] = len(touch_count) - 1
        self._time = np.full(capacity + 1, np.nan)
        self._count0 = np.zeros(capacity + 1, dtype=np.int64)
        # Free slots carry the largest stamp, so eviction never picks one.
        self._stamp = np.full(capacity + 1, _FREE, dtype=np.int64)
        self._free = np.arange(capacity - 1, -1, -1)    # popped from the end
        self._tick = 0

    def __len__(self) -> int:
        return self.capacity - len(self._free)

    def _clock(self, field: np.ndarray) -> np.ndarray:
        """Summed touch count of each field row."""
        # Reduced along the leading axis of a contiguous (width, rows)
        # gather: half the time of reducing each short row.
        return self._touch_count[np.ascontiguousarray(field.T)].sum(axis=0)

    def lookup(self, nodes: np.ndarray, ts: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, int]:
        """``(slots, serve, refused)`` for distinct queries.

        ``rows[slots[i]]`` answers query ``i`` iff ``serve[i]``: the same
        query time ``ts[i]`` and the field's clock unmoved since
        compute time.  ``refused`` counts cached rows of the right time
        that the freshness test turned down.
        """
        slots = self.slot_of[nodes]
        fresh = (self._clock(self._field.take(slots, axis=0))
                 == self._count0[slots])
        wanted = self._time[slots] == ts
        serve = wanted & fresh
        self._tick += 1
        self._stamp[slots[serve]] = self._tick
        return slots, serve, int(np.count_nonzero(wanted & ~fresh))

    def put(self, nodes: np.ndarray, ts: np.ndarray, rows: np.ndarray,
            field: np.ndarray) -> None:
        """Cache ``rows`` of distinct ``nodes``, replacing what they held.

        ``field[i]`` lists the node ids ``rows[i]`` was computed from;
        its clock is read now, so no ingest may separate compute and put.
        Of more rows than the cache holds, the last ``capacity`` are kept.
        """
        nodes, ts, rows, field = (a[-self.capacity:]
                                  for a in (nodes, ts, rows, field))
        self._tick += 1
        slots = self.slot_of[nodes]
        # Stamped before evicting: a slot reused here is never a victim
        # (the null slot's stamp is never read).
        self._stamp[slots] = self._tick
        new = np.flatnonzero(slots == self.capacity)
        if len(new):
            taken = self._allocate(len(new), len(nodes) - len(new))
            slots[new] = taken
            self.slot_of[nodes[new]] = taken
            self._node_of[taken] = nodes[new]
            self._stamp[taken] = self._tick
        self.rows[slots] = rows
        self._field[slots] = field
        self._time[slots] = ts
        self._count0[slots] = self._clock(field)

    def _allocate(self, count: int, reused: int) -> np.ndarray:
        """Pop ``count`` free slots; when short, evict an eighth of the
        cache (one ``argpartition`` per ``capacity / 8`` insertions, not
        one per pass) but none of the ``reused`` slots just stamped."""
        short = count - len(self._free)
        if short > 0:
            n = min(max(short, self.capacity // 8), len(self) - reused)
            victims = np.argpartition(self._stamp[:self.capacity], n - 1)[:n]
            self.slot_of[self._node_of[victims]] = self.capacity
            self._stamp[victims] = _FREE
            self._free = np.concatenate([self._free, victims])
        taken = self._free[len(self._free) - count:]
        self._free = self._free[:len(self._free) - count]
        return taken


class _Pending:
    """One caller's enqueued query, filled in by the executing leader."""

    __slots__ = ("nodes", "ts", "done", "rows", "error")

    def __init__(self, nodes: np.ndarray, ts: np.ndarray):
        self.nodes = nodes
        self.ts = ts
        self.done = threading.Event()
        self.rows: np.ndarray | None = None
        self.error: BaseException | None = None


class MicroBatchPlanner:
    """Coalesce concurrent embedding queries into single encoder passes.

    Parameters
    ----------
    compute:
        ``compute(nodes, ts) -> (rows, field)`` — the batched embedding
        kernel: ``(K, D)`` rows and the ``(K, F)`` node ids each row was
        computed from (see :class:`RowCache`).  Called with the
        deduplicated union of pending queries, under the planner's
        execution lock (never concurrently).
    cache:
        Optional :class:`RowCache`; pass ``None`` to disable caching.
    exec_lock:
        Lock serialising cache + compute against out-of-band state
        changes; the service passes its engine lock so ingestion and
        query passes never interleave.
    """

    def __init__(self, compute, cache: RowCache | None = None,
                 exec_lock: threading.RLock | None = None):
        self._compute = compute
        self.cache = cache
        self._lock = threading.Lock()
        self._exec_lock = exec_lock if exec_lock is not None \
            else threading.RLock()
        self._queue: list[_Pending] = []
        self._executing = False
        # requests        — planner entry calls
        # queries         — individual (node, ts) rows requested
        # batches         — batched encoder passes executed
        # coalesced       — requests that shared a pass with others
        # deduped         — rows answered by another row in the same pass
        # stale_evictions — cached rows the freshness test refused
        self.counters = _obs.owned_counters(
            "repro_serve_planner",
            ("requests", "queries", "batches", "coalesced", "deduped",
             "cache_hits", "cache_misses", "stale_evictions"),
            help="micro-batch planner {} count")

    # ------------------------------------------------------------------
    def embed(self, nodes: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Embedding rows for ``(nodes, ts)`` — thread-safe entry point."""
        nodes = np.asarray(nodes, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        if nodes.shape != ts.shape or nodes.ndim != 1:
            raise ValueError("nodes and ts must be equal-length 1-D arrays")
        request = _Pending(nodes, ts)
        with self._lock:
            self._queue.append(request)
            self.counters["requests"].inc()
            self.counters["queries"].inc(len(nodes))
            leader = not self._executing
            if leader:
                self._executing = True
        if leader:
            self._drain()
        request.done.wait()
        if request.error is not None:
            raise request.error
        return request.rows

    def _drain(self) -> None:
        """Leader loop: execute passes until the queue is empty."""
        try:
            while True:
                with self._lock:
                    if not self._queue:
                        self._executing = False
                        return
                    batch = self._take_locked()
                self._execute(batch)
        except BaseException:
            with self._lock:
                self._executing = False
            raise

    def _take_locked(self) -> list[_Pending]:
        """Pop requests until the pass reaches :data:`MAX_PASS_ROWS` rows
        (a single larger request still runs alone)."""
        taken: list[_Pending] = []
        rows = 0
        while self._queue:
            need = len(self._queue[0].nodes)
            if taken and rows + need > MAX_PASS_ROWS:
                break
            taken.append(self._queue.pop(0))
            rows += need
        return taken

    def _execute(self, batch: list[_Pending]) -> None:
        """One coalesced pass: dedup, consult cache, compute, distribute."""
        if len(batch) > 1:
            self.counters["coalesced"].inc(len(batch))
        all_nodes = np.concatenate([r.nodes for r in batch])
        all_ts = np.concatenate([r.ts for r in batch])
        try:
            with self._exec_lock:
                rows = self._answer_locked(all_nodes, all_ts)
        except BaseException as exc:
            for request in batch:
                request.error = exc
                request.done.set()
            return
        self.counters["batches"].inc()
        offset = 0
        for request in batch:
            request.rows = rows[offset:offset + len(request.nodes)]
            offset += len(request.nodes)
            request.done.set()

    def _answer_locked(self, nodes: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Rows for possibly-duplicated queries, via cache + one compute."""
        cache = self.cache
        if cache is None or len(nodes) == 0:
            return self._compute(nodes, ts)[0]
        # Distinct (node, time) pairs, keyed by the exact float64 time
        # (finite, checked by the service): sorted by node then time, a
        # query opens a run where either differs from the row before it.
        order = np.lexsort((ts, nodes))
        nodes, ts = nodes[order], ts[order]
        opens = np.ones(len(order), dtype=bool)
        np.logical_or(nodes[1:] != nodes[:-1], ts[1:] != ts[:-1],
                      out=opens[1:])
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.cumsum(opens) - 1
        nodes, ts = nodes[opens], ts[opens]
        slots, serve, refused = cache.lookup(nodes, ts)
        hit = np.flatnonzero(serve)
        miss = np.flatnonzero(~serve)
        counters = self.counters
        counters["deduped"].inc(len(inverse) - len(nodes))
        counters["cache_hits"].inc(len(hit))
        counters["cache_misses"].inc(len(miss))
        counters["stale_evictions"].inc(refused)
        # Gathered before put can evict.
        cached = cache.rows.take(slots[hit], axis=0)
        if len(miss) == 0:
            return cached[inverse]
        # One row per node: of the times asked of a node only the newest
        # (the last of its run) is cached.
        newest = np.ones(len(nodes), dtype=bool)
        newest[:-1] = nodes[1:] != nodes[:-1]
        keep = newest[miss]
        fresh, field = self._compute(nodes[miss], ts[miss])
        cache.put(nodes[miss][keep], ts[miss][keep], fresh[keep],
                  field[keep])
        rows = np.empty((len(nodes), fresh.shape[1]), dtype=fresh.dtype)
        rows[miss] = fresh
        rows[hit] = cached
        return rows[inverse]
