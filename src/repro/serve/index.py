"""Coarse-quantization candidate index for ``top_k`` retrieval.

``top_k`` over the default candidate set scores **every** observed
destination per query — O(catalog) encoder + head work that dominates
per-query cost on large catalogs.  :class:`CoarseQuantIndex` is a pure
numpy IVF-style inner-product index over destination embeddings:

* **build** — k-means (seed 0) over the ``N`` candidate vectors
  produces ``round(sqrt(N))`` centroids; candidates are stored
  contiguously per inverted list (``list_indptr`` / ``list_ids`` /
  ``list_vecs``) so a probe is one slice + one mat-vec;
* **search** — score the query against the centroids, scan the top
  ``nprobe`` lists (plus the un-listed pending tail), return the best
  ``size`` candidate ids by approximate inner product;
* **maintenance** — the ingest path appends new candidates to a pending
  tail (always scanned exactly, like an LSM delta) and marks candidates
  whose memory changed *dirty*; before a query the service re-embeds the
  dirty candidates :meth:`probe_ids` says the query will scan and
  :meth:`replace`\\ s their vectors, so dirty rows outside the probe
  cost nothing until a query reaches them.  When the tail outgrows
  :data:`REBUILD_FRACTION` of the listed rows, :meth:`needs_rebuild`
  tells the service to build afresh.

One node-space array maps a candidate id to its listed row or pending
slot, so :meth:`replace` and :meth:`contains` are vectorized lookups.

The index only ranks the *shortlist*; the service always rescores the
shortlist through the exact scoring path, so approximation affects
recall (measured, see ``tests/test_serve_fastpath.py``) but never the
score values returned.
"""

from __future__ import annotations

import numpy as np

from .. import obs as _obs

__all__ = ["CoarseQuantIndex", "kmeans_fit"]

REBUILD_FRACTION = 0.5      # pending tail / listed rows that asks a rebuild


def kmeans_fit(vectors: np.ndarray, k: int, rng: np.random.Generator,
               iterations: int = 8) -> np.ndarray:
    """Seeded Lloyd k-means; returns ``(k, D)`` centroids.

    Plain numpy, a handful of iterations: the lists only need to be
    *balanced enough* for probing, not optimal.  Empty clusters are
    re-seeded from the points farthest from their assigned centroid.
    """
    n = len(vectors)
    if k >= n:
        return vectors.astype(np.float64, copy=True)
    centroids = vectors[rng.choice(n, size=k, replace=False)].astype(
        np.float64, copy=True)
    x = vectors.astype(np.float64, copy=False)
    x_sq = np.einsum("ij,ij->i", x, x)
    dim = x.shape[1]
    columns = np.arange(dim)
    for _ in range(iterations):
        # Squared euclidean via the expansion; argmin over centroids.
        c_sq = np.einsum("ij,ij->i", centroids, centroids)
        d2 = x_sq[:, None] - 2.0 * (x @ centroids.T) + c_sq[None, :]
        assign = np.argmin(d2, axis=1)
        counts = np.bincount(assign, minlength=k)
        # Per-cluster column sums in one bincount over flat (cluster,
        # column) cells: row-major, so each cell adds its rows in index
        # order, as an unbuffered scatter-add would.
        sums = np.bincount((assign[:, None] * dim + columns).ravel(),
                           weights=x.ravel(),
                           minlength=k * dim).reshape(k, dim)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            # Re-seed each empty cluster from the currently worst-fit
            # points so the next iteration can split dense lists.
            worst = np.argsort(d2[np.arange(n), assign])[::-1]
            centroids[~nonempty] = x[worst[:int((~nonempty).sum())]]
    return centroids


class CoarseQuantIndex:
    """IVF inner-product index over a mutable candidate catalog.

    A build of ``N`` candidates sizes ``round(sqrt(N))`` inverted lists
    by k-means seeded at 0, so builds are deterministic given the
    vectors.

    Parameters
    ----------
    nprobe:
        Lists scanned per query (clamped to the number of lists).
    """

    def __init__(self, nprobe: int = 4):
        if nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        self.nprobe = nprobe
        # queries; probes — inverted lists scanned; scanned — candidate
        # vectors scored approximately; rebuilds; replaced — dirty
        # candidates refreshed in place.
        self.counters = _obs.owned_counters(
            "repro_serve_index",
            ("queries", "probes", "scanned", "rebuilds", "replaced"),
            help="IVF candidate index {} count")
        self._reset_storage()

    def _reset_storage(self) -> None:
        self._centroids: np.ndarray | None = None
        self._list_indptr: np.ndarray | None = None
        self._list_ids: np.ndarray | None = None
        self._list_vecs: np.ndarray | None = None
        self._pending_ids = np.empty(0, dtype=np.int64)
        self._pending_vecs: np.ndarray | None = None
        # Node-space slot of each id: listed row r < len(_list_ids), or
        # len(_list_ids) + p for pending slot p; -1 when not indexed.
        self._slot_of = np.full(0, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def built(self) -> bool:
        return self._centroids is not None

    @property
    def num_lists(self) -> int:
        return 0 if self._centroids is None else len(self._centroids)

    def __len__(self) -> int:
        listed = 0 if self._list_ids is None else len(self._list_ids)
        return listed + len(self._pending_ids)

    def _slots(self, ids: np.ndarray) -> np.ndarray:
        """Each id's slot (see ``_slot_of``); -1 when not indexed."""
        slots = np.full(len(ids), -1, dtype=np.int64)
        inside = (ids >= 0) & (ids < len(self._slot_of))
        slots[inside] = self._slot_of[ids[inside]]
        return slots

    def contains(self, ids: np.ndarray) -> np.ndarray:
        """Boolean mask: which ``ids`` are indexed (listed or pending)."""
        return self._slots(np.asarray(ids, dtype=np.int64)) >= 0

    # ------------------------------------------------------------------
    # build & maintenance
    # ------------------------------------------------------------------
    def build(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """(Re)build the inverted lists from scratch."""
        ids = np.asarray(ids, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or len(ids) != len(vectors):
            raise ValueError("ids and vectors must be aligned (N,) / (N, D)")
        self._reset_storage()
        if len(ids) == 0:
            return
        nlist = int(round(np.sqrt(len(ids))))
        self._centroids = kmeans_fit(vectors, nlist,
                                     np.random.default_rng(0))
        assign = self._assign(vectors)
        order = np.argsort(assign, kind="stable")
        counts = np.bincount(assign, minlength=len(self._centroids))
        self._list_indptr = np.zeros(len(self._centroids) + 1, dtype=np.int64)
        np.cumsum(counts, out=self._list_indptr[1:])
        self._list_ids = ids[order]
        self._list_vecs = vectors[order]
        self._pending_vecs = np.empty((0, vectors.shape[1]))
        self._slot_of = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
        self._slot_of[self._list_ids] = np.arange(len(ids))
        self.counters["rebuilds"].inc()

    def _assign(self, vectors: np.ndarray) -> np.ndarray:
        c = self._centroids
        c_sq = np.einsum("ij,ij->i", c, c)
        v_sq = np.einsum("ij,ij->i", vectors, vectors)
        d2 = v_sq[:, None] - 2.0 * (vectors @ c.T) + c_sq[None, :]
        return np.argmin(d2, axis=1)

    def add(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Append new candidates to a built index's pending tail (always
        scanned)."""
        ids = np.asarray(ids, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.float64)
        if len(ids) == 0:
            return
        need = int(ids.max()) + 1
        if need > len(self._slot_of):
            grown = np.full(need, -1, dtype=np.int64)
            grown[:len(self._slot_of)] = self._slot_of
            self._slot_of = grown
        self._slot_of[ids] = (len(self._list_ids) + len(self._pending_ids)
                              + np.arange(len(ids)))
        self._pending_ids = np.concatenate([self._pending_ids, ids])
        self._pending_vecs = np.concatenate([self._pending_vecs, vectors])

    def replace(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Refresh the stored vectors of indexed (dirty) candidates.

        Listed rows are overwritten in place (list membership is a
        recall heuristic, not a correctness requirement — the shortlist
        is exactly rescored).  Every id must be indexed: the service
        refreshes only ids :meth:`probe_ids` returned.
        """
        ids = np.asarray(ids, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.float64)
        slots = self._slot_of[ids]
        listed = len(self._list_ids)
        rows = slots < listed
        self._list_vecs[slots[rows]] = vectors[rows]
        self._pending_vecs[slots[~rows] - listed] = vectors[~rows]
        self.counters["replaced"].inc(len(ids))

    def needs_rebuild(self) -> bool:
        """The pending tail outgrew :data:`REBUILD_FRACTION` of the
        listed rows."""
        if not self.built:
            return False
        return (len(self._pending_ids)
                > REBUILD_FRACTION * max(len(self._list_ids), 1))

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _probe(self, query: np.ndarray) -> tuple[int, np.ndarray]:
        """``(lists probed, listed rows scanned)`` for ``query``: the rows
        of the ``nprobe`` lists whose centroids score highest, list by
        list."""
        nprobe = min(self.nprobe, self.num_lists)
        lists = np.argsort(-(self._centroids @ query), kind="stable")[:nprobe]
        indptr = self._list_indptr
        rows = np.concatenate([np.arange(indptr[lst], indptr[lst + 1])
                               for lst in lists.tolist()])
        return nprobe, rows

    def probe_ids(self, query: np.ndarray) -> np.ndarray:
        """The ids a :meth:`search` for ``query`` scans: the probed lists'
        rows, then the whole pending tail."""
        if not self.built:
            return np.empty(0, dtype=np.int64)
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        _, rows = self._probe(query)
        return np.concatenate([self._list_ids[rows], self._pending_ids])

    def search(self, query: np.ndarray, size: int) -> np.ndarray:
        """The ``size`` best candidate ids by approximate inner product.

        Scans the top ``nprobe`` inverted lists plus the whole pending
        tail; returns ids ordered best-first.  Empty when the index is.
        """
        if not self.built or size <= 0:
            return np.empty(0, dtype=np.int64)
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        nprobe, rows = self._probe(query)
        ids = np.concatenate([self._list_ids[rows], self._pending_ids])
        if len(ids) == 0:
            return ids
        vecs = np.concatenate([self._list_vecs[rows], self._pending_vecs])
        scores = vecs @ query
        self.counters["queries"].inc()
        self.counters["probes"].inc(int(nprobe))
        self.counters["scanned"].inc(len(ids))
        if size >= len(ids):
            order = np.argsort(-scores, kind="stable")
        else:
            keep = np.argpartition(-scores, size - 1)[:size]
            order = keep[np.argsort(-scores[keep], kind="stable")]
        return ids[order]
