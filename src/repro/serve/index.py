"""Coarse-quantization candidate index for ``top_k`` retrieval.

``top_k`` over the default candidate set scores **every** observed
destination per query — O(catalog) encoder + head work that dominates
per-query cost on large catalogs.  :class:`CoarseQuantIndex` is a pure
numpy IVF-style inner-product index over destination embeddings:

* **build** — seeded k-means over the candidate vectors produces
  ``nlist`` centroids; candidates are stored contiguously per inverted
  list (``list_indptr`` / ``list_ids`` / ``list_vecs``) so a probe is one
  slice + one mat-vec;
* **search** — score the query against the centroids, scan the top
  ``nprobe`` lists (plus the un-listed pending tail), return the best
  ``size`` candidate ids by approximate inner product;
* **maintenance** — the ingest path appends new candidates to a pending
  tail (always scanned exactly, like an LSM delta) and marks candidates
  whose memory changed *dirty*; before a query the service re-embeds the
  dirty candidates :meth:`probe_ids` says the query will scan and
  :meth:`replace`\\ s their vectors, so dirty rows outside the probe
  cost nothing until a query reaches them.  When the tail outgrows the
  listed storage fraction the next :meth:`search` triggers a rebuild.

One node-space array maps a candidate id to its listed row or pending
slot, so :meth:`replace`, :meth:`remove` and :meth:`contains` are
vectorized lookups.

The index only ranks the *shortlist*; the service always rescores the
shortlist through the exact scoring path, so approximation affects
recall (measured, see ``tests/test_serve_fastpath.py``) but never the
score values returned.
"""

from __future__ import annotations

import numpy as np

from .. import obs as _obs

__all__ = ["CoarseQuantIndex", "kmeans_fit"]


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

    Parameters
    ----------
    nlist:
        Number of inverted lists; ``0`` auto-sizes to ``~sqrt(N)`` at
        build time.
    nprobe:
        Lists scanned per query (clamped to ``nlist``).
    seed:
        k-means RNG seed — builds are deterministic given the vectors.
    rebuild_fraction:
        When the pending tail exceeds this fraction of the listed rows,
        the next :meth:`search` folds everything into a fresh build.
    """

    def __init__(self, nlist: int = 0, nprobe: int = 4, seed: int = 0,
                 rebuild_fraction: float = 0.5):
        if nlist < 0:
            raise ValueError("nlist must be >= 0 (0 = auto)")
        if nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        self.nlist = nlist
        self.nprobe = nprobe
        self.seed = seed
        self.rebuild_fraction = rebuild_fraction
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
        self._alive: np.ndarray | None = None    # per listed row
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
        listed = 0 if self._alive is None else int(self._alive.sum())
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
        nlist = self.nlist or max(1, int(round(np.sqrt(len(ids)))))
        nlist = min(nlist, len(ids))
        rng = np.random.default_rng(self.seed)
        self._centroids = kmeans_fit(vectors, nlist, rng)
        assign = self._assign(vectors)
        order = np.argsort(assign, kind="stable")
        counts = np.bincount(assign, minlength=len(self._centroids))
        self._list_indptr = np.zeros(len(self._centroids) + 1, dtype=np.int64)
        np.cumsum(counts, out=self._list_indptr[1:])
        self._list_ids = ids[order]
        self._list_vecs = vectors[order]
        self._alive = np.ones(len(ids), dtype=bool)
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
        """Append new candidates to the pending tail (always scanned)."""
        ids = np.asarray(ids, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.float64)
        if len(ids) == 0:
            return
        if not self.built:
            self.build(ids, vectors)
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
        """Refresh the stored vectors of existing (dirty) candidates.

        Listed rows are overwritten in place (list membership is a
        recall heuristic, not a correctness requirement — the shortlist
        is exactly rescored); unknown ids fall through to :meth:`add`.
        """
        ids = np.asarray(ids, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.float64)
        slots = self._slots(ids)
        known = slots >= 0
        if known.any():
            listed = len(self._list_ids)
            rows = known & (slots < listed)
            self._list_vecs[slots[rows]] = vectors[rows]
            tail = slots >= listed
            self._pending_vecs[slots[tail] - listed] = vectors[tail]
            self.counters["replaced"].inc(int(known.sum()))
        if not known.all():
            self.add(ids[~known], vectors[~known])

    def remove(self, ids: np.ndarray) -> int:
        """Drop candidates from the listed storage; returns drop count."""
        if not self.built:
            return 0
        ids = np.asarray(ids, dtype=np.int64)
        slots = self._slots(ids)
        listed = (slots >= 0) & (slots < len(self._list_ids))
        self._slot_of[ids[listed]] = -1
        before = int(self._alive.sum())
        self._alive[slots[listed]] = False
        return before - int(self._alive.sum())

    def needs_rebuild(self) -> bool:
        """Pending tail (or dead rows) outgrew the listed storage."""
        if not self.built:
            return False
        listed = len(self._list_ids)
        stale = len(self._pending_ids) + int((~self._alive).sum())
        return stale > self.rebuild_fraction * max(listed, 1)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _probe(self, query: np.ndarray, nprobe: int | None
               ) -> tuple[int, np.ndarray]:
        """``(lists probed, listed rows scanned)`` for ``query``: the alive
        rows of the ``nprobe`` lists whose centroids score highest, list
        by list."""
        nprobe = min(self.nprobe if nprobe is None else nprobe,
                     self.num_lists)
        lists = np.argsort(-(self._centroids @ query), kind="stable")[:nprobe]
        indptr = self._list_indptr
        rows = np.concatenate([np.arange(indptr[lst], indptr[lst + 1])
                               for lst in lists.tolist()])
        return nprobe, rows[self._alive[rows]]

    def probe_ids(self, query: np.ndarray,
                  nprobe: int | None = None) -> np.ndarray:
        """The ids a :meth:`search` for ``query`` scans: the probed lists'
        alive rows, then the whole pending tail."""
        if not self.built:
            return np.empty(0, dtype=np.int64)
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        _, rows = self._probe(query, nprobe)
        return np.concatenate([self._list_ids[rows], self._pending_ids])

    def search(self, query: np.ndarray, size: int,
               nprobe: int | None = None) -> np.ndarray:
        """The ``size`` best candidate ids by approximate inner product.

        Scans the top-``nprobe`` inverted lists plus the whole pending
        tail; returns ids ordered best-first.  Empty when the index is.
        """
        if not self.built or size <= 0:
            return np.empty(0, dtype=np.int64)
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        nprobe, rows = self._probe(query, nprobe)
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
