"""`EmbeddingService`: a pre-training artifact turned long-lived query
engine.

``EmbeddingService.from_artifact(path)`` reconstructs the frozen encoder
(+ sparse-delta memory) a :class:`~repro.api.artifact.PretrainArtifact`
describes and serves three query families over it:

* ``embed(nodes, ts)`` — temporal embeddings ``z_i^t`` at query time,
  batched through the :class:`~repro.serve.planner.MicroBatchPlanner`
  (coalescing + the :class:`~repro.serve.planner.RowCache`);
* ``score_links(src, dst, ts)`` — link affinity, via the artifact's
  fine-tuned head (+ EIE enhancement) when one rode along in a format-v2
  artifact, else embedding dot products;
* ``top_k(src, t, k)`` — ranked retrieval over a candidate set, reusing
  :func:`repro.tasks.ranking.top_k_from_scores`.

``ingest(...)`` feeds live events through the
:class:`~repro.serve.ingest.LiveIngestor`: the
:class:`~repro.serve.dynamic_finder.DynamicNeighborFinder` grows
append-only, the memory advances through the PR-3 sparse-delta staging
path, and the touch counts of the changed rows advance.  The row cache is
never invalidated: a cached row records the receptive field it was
computed from (the node and its sampled temporal neighbours, handed back
by the encoder pass) and is served only while that field's touch counts
stand still, so every cached answer equals a ``cache_capacity=0``
service's.  Serve-time ingestion is
replay-equivalent — embeddings after ingesting a suffix are bit-identical
to an offline replay over the concatenated stream (asserted in
``tests/test_serve.py``).

Rows are computed by the plain eager encoder pass under ``no_grad`` (0
autograd nodes; the ``serve.compute`` span).  There is no compiled
inference path — replaying a forward-only program measured slower than
eager on ``serve-read`` (numbers in :mod:`repro.nn.compile`) — and
``no_grad`` / dtype scopes are per thread.

**The serving fast path** stacks two optional trade-offs on top, each
leaving the exact path available:

* ``index=True`` routes default-catalog ``top_k`` through a
  :class:`~repro.serve.index.CoarseQuantIndex` shortlist (IVF over
  destination embeddings, maintained incrementally by ingest) that is
  then **exactly rescored**, capping per-query cost on large catalogs;
* ``background_compaction`` (default on) moves
  ``DynamicNeighborFinder`` delta merges onto a generation-swapped
  background build so ingest requests never pay the compaction pause.

``snapshot(path)`` / :meth:`EmbeddingService.from_snapshot` persist and
restore the whole live state (memory, pending messages, adjacency,
feature table, candidates, touch counts — all flat arrays) so a replica
restarts without replaying its ingested history.  Cache contents are not
part of a snapshot; a restored replica starts cold.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass

import numpy as np

from .. import obs as _obs
from ..api.artifact import PretrainArtifact, stream_fingerprint
from ..api.data import resolve_data
from ..core.eie import EIEModule
from ..core.pretext import LinkPredictionHead
from ..dgnn.encoder import ZeroEdgeFeatures, make_encoder
from ..graph.events import EventStream
from ..graph.neighbor_finder import NeighborFinder
from ..nn.autograd import Tensor, default_dtype, no_grad
from ..tasks.ranking import top_k_from_scores
from .dynamic_finder import BackgroundCompactor, DynamicNeighborFinder
from .index import CoarseQuantIndex
from .ingest import LiveIngestor
from .planner import MicroBatchPlanner, RowCache
from .snapshot import (SnapshotError, read_snapshot, verify_snapshot_meta,
                       write_snapshot)

__all__ = ["ServeConfig", "ServeError", "EmbeddingService"]


class ServeError(RuntimeError):
    """The service cannot be built or a query is malformed."""


@dataclass
class ServeConfig:
    """Runtime knobs of one serving replica."""

    cache_capacity: int = 65536          # row cache slots; 0 disables
    compaction_threshold: int = 4096     # delta events before CSR merge
    verify_fingerprint: bool = True      # history must match the artifact
    use_finetuned: bool | None = None    # None = auto (when bundle exists)
    # --- serving fast path -------------------------------------------
    index: bool = False                  # IVF shortlist for default top_k
    index_nprobe: int = 4                # lists scanned per query
    index_shortlist: int = 128           # min candidates exactly rescored
    background_compaction: bool = True   # delta merges off the request path

    def validate(self) -> None:
        if self.cache_capacity < 0:
            raise ServeError("cache_capacity must be >= 0")
        if self.index_nprobe < 1:
            raise ServeError("index_nprobe must be >= 1")
        if self.index_shortlist < 1:
            raise ServeError("index_shortlist must be >= 1")


class EmbeddingService:
    """Online embedding / link-score serving over one artifact.

    Parameters
    ----------
    artifact:
        The pre-training artifact (in memory; use :meth:`from_artifact`
        for a path).
    history:
        The event stream the artifact was pre-trained on — the service's
        initial temporal adjacency.  Resolved from the artifact's
        embedded data config when omitted.  Unused (and not required)
        when restoring from a snapshot.
    config:
        :class:`ServeConfig` runtime knobs.
    """

    def __init__(self, artifact: PretrainArtifact,
                 history: EventStream | None = None,
                 config: ServeConfig | None = None, *, _snapshot=None):
        self.config = config if config is not None else ServeConfig()
        self.config.validate()
        self.artifact = artifact
        restoring = _snapshot is not None
        if not restoring:
            if history is None:
                history = resolve_data(artifact.run_config.data).pretrain
            if self.config.verify_fingerprint \
                    and artifact.dataset_fingerprint:
                fingerprint = stream_fingerprint(history)
                # v1 artifacts recorded the legacy topology-only hash, so
                # a feature-bearing history must also be accepted under
                # it.
                legacy = (stream_fingerprint(history,
                                             include_payloads=False)
                          if artifact.format_version < 2 else fingerprint)
                if artifact.dataset_fingerprint not in (fingerprint, legacy):
                    raise ServeError(
                        f"history stream fingerprint {fingerprint} does "
                        f"not match the artifact's "
                        f"{artifact.dataset_fingerprint}; pass the "
                        "pre-training stream (or disable "
                        "verify_fingerprint)")
            if history.num_nodes > artifact.num_nodes:
                raise ServeError(
                    f"history node space ({history.num_nodes}) exceeds "
                    f"the artifact's ({artifact.num_nodes})")
            if history.num_nodes < artifact.num_nodes:
                # Widen the finder to the artifact's node space so later
                # ingestion may introduce ids the history never used.
                history = dataclasses.replace(history,
                                              num_nodes=artifact.num_nodes)

        run_config = artifact.run_config
        pretrain_cfg = run_config.pretrain
        self.backbone = run_config.backbone
        self._dtype = pretrain_cfg.np_dtype
        bundle = artifact.finetuned
        use_ft = self.config.use_finetuned
        if use_ft is None:
            use_ft = bundle is not None
        if use_ft and bundle is None:
            raise ServeError("use_finetuned=True but the artifact carries "
                             "no fine-tuned bundle (format v1?)")
        self.serves_finetuned = bool(use_ft)

        with default_dtype(self._dtype):
            rng = np.random.default_rng(pretrain_cfg.seed)
            encoder = make_encoder(
                self.backbone, artifact.num_nodes, rng,
                memory_dim=pretrain_cfg.memory_dim,
                embed_dim=pretrain_cfg.embed_dim,
                time_dim=pretrain_cfg.time_dim,
                edge_dim=pretrain_cfg.edge_dim,
                n_neighbors=pretrain_cfg.n_neighbors,
                n_layers=pretrain_cfg.n_layers,
                delta_scale=artifact.delta_scale,
                dtype=pretrain_cfg.np_dtype)
            encoder.load_state_dict(bundle.encoder_state if use_ft
                                    else artifact.result.encoder_state)
            encoder.load_memory(artifact.result.memory_state,
                                artifact.result.last_update)
            self._head: LinkPredictionHead | None = None
            self._eie: EIEModule | None = None
            if use_ft:
                self._load_head(bundle, rng)
        self.encoder = encoder

        # The default top_k catalog (every destination seen so far) and
        # the rows the IVF index holds stale are masks over the node
        # space; `_candidates` is the catalog's sorted id array, rebuilt
        # only when an ingest brings a new destination.
        if restoring:
            edge_table = self._restore_live_state(_snapshot)
        else:
            self.finder = DynamicNeighborFinder(
                NeighborFinder(history),
                compaction_threshold=self.config.compaction_threshold,
                ring_width=2 * encoder.n_neighbors)
            encoder.attach(history, self.finder)
            self._candidate_mask = np.zeros(artifact.num_nodes, dtype=bool)
            self._candidate_mask[history.dst] = True
            edge_table = (encoder._edge_feats
                          if isinstance(encoder._edge_feats, np.ndarray)
                          else None)
            self._snapshot_meta = {"restored": False}
        self._candidates = np.flatnonzero(self._candidate_mask)
        self._dirty_mask = np.zeros(artifact.num_nodes, dtype=bool)

        self._lock = threading.RLock()
        # Held by one indexed top_k's upkeep at a time (outside _lock).
        self._index_lock = threading.Lock()
        self._ingestor = LiveIngestor(encoder, self.finder,
                                      edge_feats=edge_table)
        if restoring:
            _, data = _snapshot
            clock, saved = self._ingestor.touch_count[:-1], data["touch_count"]
            if saved.shape != clock.shape:
                raise SnapshotError("snapshot touch_count has shape "
                                    f"{saved.shape}, expected {clock.shape}")
            clock[:] = saved
        cache = None
        if self.config.cache_capacity:
            cache = RowCache(self.config.cache_capacity, encoder.embed_dim,
                             encoder.field_width,
                             self._ingestor.touch_count, dtype=self._dtype)
        self.planner = MicroBatchPlanner(self._compute_rows, cache=cache,
                                         exec_lock=self._lock)
        self._index: CoarseQuantIndex | None = None
        self._compactor: BackgroundCompactor | None = None
        if self.config.background_compaction:
            self._compactor = BackgroundCompactor(self.finder,
                                                  self._lock).attach()
        # Per-endpoint request latency histograms
        # (repro_serve_request_seconds{endpoint=}), always on; the
        # latest service instance wins the registry slot.
        self._request_hist = {
            endpoint: _obs.histogram(
                "repro_serve_request_seconds",
                labels={"endpoint": endpoint},
                help="serve request latency by endpoint", replace=True)
            for endpoint in ("embed", "score_links", "top_k", "ingest")}

    def _restore_live_state(self, snapshot) -> np.ndarray | None:
        """Rebuild finder / memory / staged messages from snapshot arrays.

        Returns the restored edge-feature table (``None`` for featureless
        or lazy-zero services).  Replaces the replay of ingested history:
        every array is installed as-is, so the restored replica is
        bit-identical to the one that wrote the snapshot.
        """
        meta, data = snapshot
        encoder = self.encoder
        base = NeighborFinder.from_arrays(
            np.asarray(data["base_indptr"]),
            np.asarray(data["base_neighbors"]),
            np.asarray(data["base_times"]),
            np.asarray(data["base_event_ids"]))
        self.finder = DynamicNeighborFinder(
            base, compaction_threshold=self.config.compaction_threshold,
            ring_width=2 * encoder.n_neighbors)
        if len(data["delta_src"]):
            self.finder.append(np.asarray(data["delta_src"]),
                               np.asarray(data["delta_dst"]),
                               np.asarray(data["delta_ts"]),
                               np.asarray(data["delta_eid"]))
        encoder._finder = self.finder
        edge_table = None
        if meta["edge_mode"] == "table":
            edge_table = np.asarray(data["edge_feats"])
            encoder._edge_feats = edge_table
        elif meta["edge_mode"] == "zero":
            encoder._edge_feats = ZeroEdgeFeatures(encoder.edge_dim)
        else:
            encoder._edge_feats = None
        # Memory.load / Memory.stage check every array against the
        # artifact's memory; their errors name the array.
        try:
            encoder.load_memory(np.asarray(data["memory_state"]),
                                np.asarray(data["last_update"]))
            if meta.get("has_staged"):
                edge = (np.asarray(data["staged_edge_feat"])
                        if meta.get("staged_has_edge") else None)
                encoder.memory.stage(
                    np.asarray(data["staged_nodes"]),
                    np.asarray(data["staged_self_state"]),
                    np.asarray(data["staged_other_state"]),
                    np.asarray(data["staged_delta_t"]),
                    np.asarray(data["staged_time"]),
                    np.asarray(data["staged_event_ids"]), edge)
        except ValueError as exc:
            raise SnapshotError(f"malformed snapshot: {exc}") from exc
        candidates = np.asarray(data["candidates"], dtype=np.int64)
        if len(candidates) and (candidates.min() < 0 or candidates.max()
                                >= self.artifact.num_nodes):
            raise SnapshotError("malformed snapshot: candidates must lie "
                                f"in [0, {self.artifact.num_nodes})")
        self._candidate_mask = np.zeros(self.artifact.num_nodes, dtype=bool)
        self._candidate_mask[candidates] = True
        self._snapshot_meta = {
            "restored": True,
            "events_at_restore": int(meta["num_events"]),
            "created_unix": float(meta["created_unix"]),
        }
        return edge_table

    def _load_head(self, bundle, rng: np.random.Generator) -> None:
        """Rebuild the fine-tuned scoring head (+ EIE) from the bundle."""
        if bundle.task != "link_prediction":
            return  # node-classification heads do not score links
        run_config = self.artifact.run_config
        eie_dim = 0
        if bundle.eie_state is not None:
            fuser = bundle.strategy.split("-", 1)[1] \
                if bundle.strategy.startswith("eie-") else "gru"
            checkpoints = self.artifact.result.checkpoints
            if len(checkpoints) == 0:
                raise ServeError("artifact bundle expects EIE but carries "
                                 "no memory checkpoints")
            self._eie = EIEModule(checkpoints, fuser,
                                  out_dim=run_config.finetune.eie_out_dim,
                                  rng=rng)
            self._eie.load_state_dict(bundle.eie_state)
            eie_dim = self._eie.out_dim
        self._head = LinkPredictionHead(
            run_config.pretrain.embed_dim + eie_dim, rng)
        self._head.load_state_dict(bundle.head_state)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(cls, artifact: PretrainArtifact | str,
                      history: EventStream | None = None,
                      config: ServeConfig | None = None,
                      **knobs) -> "EmbeddingService":
        """Build a service from a saved (or in-memory) artifact.

        ``knobs`` are :class:`ServeConfig` field overrides, e.g.
        ``from_artifact(path, cache_capacity=0, index=True)``.
        """
        if isinstance(artifact, str):
            artifact = PretrainArtifact.load(artifact)
        if knobs:
            config = dataclasses.replace(config if config is not None
                                         else ServeConfig(), **knobs)
        return cls(artifact, history=history, config=config)

    @classmethod
    def from_snapshot(cls, artifact: PretrainArtifact | str,
                      snapshot_path: str,
                      config: ServeConfig | None = None,
                      **knobs) -> "EmbeddingService":
        """Restore a replica from :meth:`snapshot` output — no replay.

        The artifact supplies the frozen parameters; every piece of live
        state (memory, pending messages, adjacency, features, candidate
        catalog, touch counts) comes from the snapshot file.
        """
        if isinstance(artifact, str):
            artifact = PretrainArtifact.load(artifact)
        if knobs:
            config = dataclasses.replace(config if config is not None
                                         else ServeConfig(), **knobs)
        meta, data = read_snapshot(snapshot_path)
        verify_snapshot_meta(meta, artifact)
        return cls(artifact, config=config, _snapshot=(meta, data))

    def snapshot(self, path: str) -> dict:
        """Write the live state to ``path`` (npz); returns the meta dict.

        Taken under the service lock, so the arrays form one consistent
        cut between ingested blocks.
        """
        with self._lock:
            return write_snapshot(self, path)

    def close(self) -> None:
        """Stop background machinery (the compactor thread)."""
        if self._compactor is not None:
            self._compactor.close()
            self._compactor = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _compute_rows(self, nodes: np.ndarray, ts: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray | None]:
        """The planner's batched kernel: one eager encoder pass under
        ``no_grad``; detached rows and the receptive field of each
        (``None`` with the cache off)."""
        if len(nodes) == 0:
            return (np.zeros((0, self.encoder.embed_dim), dtype=self._dtype),
                    None)
        # What the pass reads for each row; nobody tests it without a cache.
        reads = None if self.planner.cache is None else []
        with _obs.span("serve.compute", rows=len(nodes)), \
                default_dtype(self._dtype), no_grad():
            rows = self.encoder.compute_embedding(nodes, ts, reads=reads).data
            # Persist the flush of any pending ingested messages so the
            # store (and every later query) sees the advanced memory.
            self.encoder.end_batch()
        if reads is None:
            return rows, None
        return rows, self.encoder.receptive_field(nodes, reads)

    def _query_arrays(self, nodes, ts) -> tuple[np.ndarray, np.ndarray]:
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        ts_arr = np.asarray(ts, dtype=np.float64)
        if ts_arr.ndim == 0:
            ts_arr = np.full(len(nodes), float(ts_arr))
        if nodes.shape != ts_arr.shape:
            raise ServeError("nodes and ts must have matching shapes "
                             "(or pass a scalar ts)")
        if not np.isfinite(ts_arr).all():
            raise ServeError("query times must be finite")
        if len(nodes) and (nodes.min() < 0
                           or nodes.max() >= self.artifact.num_nodes):
            raise ServeError(f"node ids must lie in "
                             f"[0, {self.artifact.num_nodes})")
        return nodes, ts_arr

    def embed(self, nodes, ts) -> np.ndarray:
        """Temporal embeddings ``z_i^t`` — ``(len(nodes), embed_dim)``.

        ``ts`` may be a scalar (applied to every node) or a per-node
        array.  Concurrent callers coalesce into one encoder pass.
        """
        start = time.perf_counter()
        try:
            nodes, ts = self._query_arrays(nodes, ts)
            with _obs.span("serve.embed", rows=len(nodes)):
                return self.planner.embed(nodes, ts)
        finally:
            self._request_hist["embed"].observe(time.perf_counter() - start)

    def _enhanced(self, rows: np.ndarray, nodes: np.ndarray) -> Tensor:
        """Apply the EIE side-vector when the fine-tuned head expects it."""
        z = Tensor(rows)
        if self._eie is not None:
            z = self._eie(z, nodes)
        return z

    def score_links(self, src, dst, ts) -> np.ndarray:
        """Link scores for aligned ``(src, dst)`` pairs at time(s) ``ts``.

        With a fine-tuned head (artifact v2) this is the head's logit —
        the same score fine-tuned evaluation ranks with; otherwise the
        embedding dot product.
        """
        start = time.perf_counter()
        try:
            src, ts = self._query_arrays(src, ts)
            if len(np.atleast_1d(np.asarray(dst))) != len(src):
                raise ServeError("src and dst must have equal length")
            dst, _ = self._query_arrays(dst, ts)
            with _obs.span("serve.score_links", pairs=len(src)):
                rows = self.planner.embed(np.concatenate([src, dst]),
                                          np.concatenate([ts, ts]))
                z_src, z_dst = rows[:len(src)], rows[len(src):]
                if self._head is None:
                    return np.sum(z_src * z_dst, axis=1)
                with default_dtype(self._dtype), no_grad(), self._lock:
                    scores = self._head.score(self._enhanced(z_src, src),
                                              self._enhanced(z_dst, dst))
                return np.asarray(scores.data, dtype=np.float64)
        finally:
            self._request_hist["score_links"].observe(
                time.perf_counter() - start)

    # ------------------------------------------------------------------
    # top-k retrieval (exact scan or IVF shortlist + exact rescore)
    # ------------------------------------------------------------------
    def top_k(self, src: int, t: float, k: int,
              candidates: np.ndarray | None = None,
              exact: bool | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` highest-scoring destinations for ``src`` at ``t``.

        ``candidates`` defaults to every destination observed so far
        (history + ingested events); explicit candidate sets are always
        scanned exactly.  ``exact`` overrides the config's ``index``
        choice for this query.  Returns ``(node_ids, scores)``, best
        first — empty (never an error) when there are no candidates or
        ``k == 0``; fewer than ``k`` rows when the candidate set is
        smaller than ``k``.
        """
        start = time.perf_counter()
        try:
            if k < 0:
                raise ServeError("k must be >= 0")
            # Checked before the shortlist touches index state: it clears
            # the dirty marks it takes.
            src_arr, t_arr = self._query_arrays(src, t)
            if len(src_arr) != 1:
                raise ServeError("top_k takes one src node")
            src, t = int(src_arr[0]), float(t_arr[0])
            explicit = candidates is not None
            if candidates is None:
                candidates = self._candidates
            candidates = np.asarray(candidates, dtype=np.int64)
            if k == 0 or len(candidates) == 0:
                return (np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=np.float64))
            with _obs.span("serve.top_k", k=int(k)):
                use_index = (self.config.index if exact is None
                             else not exact)
                if use_index and not explicit and k < len(candidates):
                    shortlist = self._indexed_shortlist(src, t, int(k))
                    # A probe that surfaced fewer than k ids cannot answer
                    # the query — fall back to the exact full scan.
                    if len(shortlist) >= k:
                        candidates = shortlist
                scores = self.score_links(np.full(len(candidates), src),
                                          candidates, t)
                return top_k_from_scores(candidates, scores, k)
        finally:
            self._request_hist["top_k"].observe(time.perf_counter() - start)

    def _indexed_shortlist(self, src: int, t: float, k: int) -> np.ndarray:
        """Maintain the IVF index and return the approximate shortlist.

        Pass 1 embeds the catalog rows the index lacks (the whole catalog
        on a rebuild) and the query ``src`` at ``t`` in **one** planner
        pass.  The query vector picks the probe (the ``nprobe`` nearest
        lists plus the pending tail); pass 2 re-embeds only the dirty
        rows inside it, and runs only when there are any.  Dirty rows
        outside the probe keep their mark until a probe reaches them or a
        rebuild clears every mark.  Concurrent calls take turns on the
        index lock: two upkeeps that interleave could add one id twice or
        write a vector older than a mark the other cleared.  The planner
        runs *outside* the service lock (it takes it); marks are taken and
        the index mutated under it, so an ingest racing a pass re-marks
        what it touches.  The shortlist is always exactly rescored.
        """
        with self._index_lock:
            with self._lock:
                if self._index is None:
                    self._index = CoarseQuantIndex(self.config.index_nprobe)
                index = self._index
                rebuild = not index.built or index.needs_rebuild()
                catalog = self._candidates
                if rebuild:
                    rows = catalog
                    self._dirty_mask[:] = False
                else:
                    rows = catalog[~index.contains(catalog)]
                    self._dirty_mask[rows] = False
            vectors = self.planner.embed(np.append(rows, src),
                                         np.full(len(rows) + 1, t))
            query = vectors[-1]
            with self._lock:
                if rebuild:
                    index.build(catalog, vectors[:-1])
                else:
                    index.add(rows, vectors[:-1])
                probed = index.probe_ids(query)
                stale = probed[self._dirty_mask[probed]]
                self._dirty_mask[stale] = False
            if len(stale):
                refreshed = self.planner.embed(stale, np.full(len(stale), t))
            with self._lock:
                if len(stale):
                    index.replace(stale, refreshed)
                return index.search(query,
                                    max(k, self.config.index_shortlist))

    # ------------------------------------------------------------------
    # live ingestion
    # ------------------------------------------------------------------
    def ingest(self, events: EventStream | None = None, *,
               src=None, dst=None, timestamps=None, edge_feats=None,
               block_size: int | None = None) -> int:
        """Ingest new events (an :class:`EventStream` or raw arrays).

        Appends to the dynamic adjacency, advances the memory through the
        sparse-delta staging path and advances the touch counts of the
        rows whose state changed — which is all the row cache needs (it
        is never walked here).  Returns the number of events ingested.
        """
        start = time.perf_counter()
        # The configured dtype must wrap the flush math so serve-time
        # ingestion stays bit-identical to an offline replay.
        with _obs.span("serve.ingest"), self._lock, \
                default_dtype(self._dtype):
            if events is not None:
                touched = self._ingestor.ingest_stream(events,
                                                       block_size=block_size)
                count = events.num_events
                new_dst = events.dst
            else:
                if src is None or dst is None or timestamps is None:
                    raise ServeError("ingest needs an EventStream or "
                                     "src/dst/timestamps arrays")
                touched = self._ingestor.ingest(src, dst, timestamps,
                                                edge_feats=edge_feats)
                count = len(np.atleast_1d(src))
                new_dst = np.asarray(dst, dtype=np.int64)
            if count:
                new_dst = new_dst[~self._candidate_mask[new_dst]]
                if len(new_dst):
                    self._candidate_mask[new_dst] = True
                    self._candidates = np.flatnonzero(self._candidate_mask)
                if self._index is not None:
                    # Only catalog rows hold index vectors that can go
                    # stale; a mark elsewhere would outlive every probe.
                    self._dirty_mask[touched] |= self._candidate_mask[touched]
        self._request_hist["ingest"].observe(time.perf_counter() - start)
        return count

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One JSON-able snapshot for ``/stats`` and the benchmarks."""
        with self._lock:
            cache = self.planner.cache
            index = self._index
            compactor = self._compactor
            planner = _ints(self.planner.counters)
            lookups = planner["cache_hits"] + planner["cache_misses"]
            ingest = self._ingestor.counters
            seconds = float(ingest["seconds"])
            snapshot = dict(self._snapshot_meta)
            if snapshot.get("restored"):
                snapshot["events_since_restore"] = (
                    int(self.finder.num_events)
                    - snapshot["events_at_restore"])
            return {
                "backbone": self.backbone,
                "num_nodes": int(self.artifact.num_nodes),
                "embed_dim": int(self.encoder.embed_dim),
                # Width ingested edge_feats must have (0: send none).
                "ingest_edge_dim": (
                    self._ingestor.edge_feats.shape[1]
                    if self._ingestor.edge_feats is not None else 0),
                "dtype": str(np.dtype(self._dtype)),
                "scorer": ("finetuned-head" if self._head is not None
                           else "dot-product"),
                "graph": {
                    "num_events": int(self.finder.num_events),
                    "delta_events": int(self.finder.delta_events),
                    "compactions": int(self.finder.compactions),
                    "background_compaction": compactor is not None,
                    "compactor": (None if compactor is None else {
                        **_ints(compactor.counters),
                        "idle": compactor.idle}),
                },
                "index": (None if index is None else {
                    "size": len(index),
                    "lists": index.num_lists,
                    "nprobe": index.nprobe,
                    "dirty": int(np.count_nonzero(self._dirty_mask)),
                    **_ints(index.counters),
                }),
                "candidates": int(len(self._candidates)),
                "snapshot": snapshot,
                "planner": {**planner, "cache_hit_rate": round(
                    planner["cache_hits"] / lookups if lookups else 0.0, 4)},
                "cache_rows": 0 if cache is None else len(cache),
                "ingest": {
                    "blocks": int(ingest["blocks"]),
                    "events": int(ingest["events"]),
                    "events_per_sec": round(
                        int(ingest["events"]) / seconds if seconds > 0
                        else 0.0, 2),
                    "touched_rows": int(ingest["touched_rows"]),
                },
            }


def _ints(counters: dict) -> dict:
    """``{name: int(counter)}`` of an owner's counter dict."""
    return {name: int(c) for name, c in counters.items()}
