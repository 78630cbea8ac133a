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
  whose memory changed *dirty*; the service re-embeds dirty candidates
  lazily and :meth:`replace`\\ s their vectors.  When the tail outgrows
  the listed storage fraction the next :meth:`search` triggers a rebuild.

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
    for _ in range(iterations):
        # Squared euclidean via the expansion; argmin over centroids.
        c_sq = np.einsum("ij,ij->i", centroids, centroids)
        d2 = x_sq[:, None] - 2.0 * (x @ centroids.T) + c_sq[None, :]
        assign = np.argmin(d2, axis=1)
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, x)
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
        self._pending_ids: list[np.ndarray] = []
        self._pending_vecs: list[np.ndarray] = []
        self._pending_count = 0
        # id -> listed row position, for O(1) replace/remove.
        self._row_of: dict[int, int] = {}

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
        return listed + self._pending_count

    def ids(self) -> np.ndarray:
        """Every candidate id currently indexed (listed + pending)."""
        parts = []
        if self._list_ids is not None:
            parts.append(self._list_ids[self._alive])
        parts.extend(self._pending_ids)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

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
        self._row_of = {int(i): row for row, i in
                        enumerate(self._list_ids.tolist())}
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
        self._pending_ids.append(ids)
        self._pending_vecs.append(vectors)
        self._pending_count += len(ids)

    def replace(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Refresh the stored vectors of existing (dirty) candidates.

        Listed rows are overwritten in place (list membership is a
        recall heuristic, not a correctness requirement — the shortlist
        is exactly rescored); unknown ids fall through to :meth:`add`.
        """
        ids = np.asarray(ids, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.float64)
        fresh_ids, fresh_vecs = [], []
        replaced = 0
        pending = {}
        for block_ids, block_vecs in zip(self._pending_ids,
                                         self._pending_vecs):
            for j, i in enumerate(block_ids.tolist()):
                pending[int(i)] = (block_vecs, j)
        for k, i in enumerate(ids.tolist()):
            row = self._row_of.get(int(i))
            if row is not None:
                self._list_vecs[row] = vectors[k]
                replaced += 1
            elif int(i) in pending:
                block, j = pending[int(i)]
                block[j] = vectors[k]
                replaced += 1
            else:
                fresh_ids.append(int(i))
                fresh_vecs.append(vectors[k])
        self.counters["replaced"].inc(replaced)
        if fresh_ids:
            self.add(np.asarray(fresh_ids, dtype=np.int64),
                     np.stack(fresh_vecs))

    def remove(self, ids: np.ndarray) -> int:
        """Drop candidates from the listed storage; returns drop count."""
        dropped = 0
        for i in np.asarray(ids, dtype=np.int64).tolist():
            row = self._row_of.pop(int(i), None)
            if row is not None and self._alive[row]:
                self._alive[row] = False
                dropped += 1
        return dropped

    def needs_rebuild(self) -> bool:
        """Pending tail (or dead rows) outgrew the listed storage."""
        if not self.built:
            return False
        listed = len(self._list_ids)
        stale = self._pending_count + int((~self._alive).sum())
        return stale > self.rebuild_fraction * max(listed, 1)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(self, query: np.ndarray, size: int,
               nprobe: int | None = None) -> np.ndarray:
        """The ``size`` best candidate ids by approximate inner product.

        Scans the top-``nprobe`` inverted lists plus the whole pending
        tail; returns ids ordered best-first.  Empty when the index is.
        """
        if not self.built or size <= 0:
            return np.empty(0, dtype=np.int64)
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        nprobe = min(self.nprobe if nprobe is None else nprobe,
                     self.num_lists)
        centroid_scores = self._centroids @ query
        probe = np.argsort(-centroid_scores, kind="stable")[:nprobe]
        id_parts, vec_parts = [], []
        for lst in probe.tolist():
            lo, hi = self._list_indptr[lst], self._list_indptr[lst + 1]
            alive = self._alive[lo:hi]
            id_parts.append(self._list_ids[lo:hi][alive])
            vec_parts.append(self._list_vecs[lo:hi][alive])
        id_parts.extend(self._pending_ids)
        vec_parts.extend(self._pending_vecs)
        ids = (np.concatenate(id_parts) if id_parts
               else np.empty(0, dtype=np.int64))
        if len(ids) == 0:
            return ids
        vecs = np.concatenate(vec_parts)
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
