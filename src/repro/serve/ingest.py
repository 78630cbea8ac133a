"""Live event ingestion into a frozen encoder's evolving memory.

:class:`LiveIngestor` advances a serving replica exactly the way an
offline chronological replay would: per ingested block it

1. flushes the *previous* block's staged raw messages into the encoder's
   :class:`~repro.dgnn.memory.Memory` through its sparse per-batch delta
   (TGN-style one-batch deferral — the same order the trainers and the
   offline scorer use),
2. appends the events to the :class:`~repro.serve.dynamic_finder.
   DynamicNeighborFinder` and extends the edge-feature table,
3. stages the block's raw messages and advances the last-update clock via
   ``encoder.register_batch``.

Because every step reuses the training-path primitives in the same
order, serve-time ingestion is **replay-equivalent**: after ingesting a
suffix stream, embeddings are bit-identical to an offline encoder that
replayed the concatenated (pre-train + suffix) stream.  The ingestor also
reports which memory rows each block touched — the flush-written rows
plus the event endpoints — and advances their touch counts; the query
layer's row cache compares a cached row's receptive field against those
counts instead of being invalidated.
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs as _obs
from ..dgnn.encoder import DGNNEncoder, ZeroEdgeFeatures
from ..graph.batching import EventBatch
from ..graph.events import EventStream
from ..nn.autograd import no_grad
from .dynamic_finder import DynamicNeighborFinder, IngestError

__all__ = ["IngestError", "LiveIngestor"]


class LiveIngestor:
    """Feeds new events into a frozen encoder + dynamic adjacency."""

    def __init__(self, encoder: DGNNEncoder, finder: DynamicNeighborFinder,
                 edge_feats: np.ndarray | None = None):
        self.encoder = encoder
        self.finder = finder
        # Edge-feature table indexed by global event id: the first
        # `_num_feats` rows of a capacity buffer that doubles when a block
        # does not fit, so ingesting costs amortised O(block) instead of
        # a copy of the whole table per block.  None when the encoder
        # runs featureless or on a lazy zero table.
        self._feat_buffer = edge_feats
        self._num_feats = 0 if edge_feats is None else len(edge_feats)
        # Per-row touch clock, mutated in place so the row cache can
        # hold a reference: touch_count[n] counts ingested blocks that
        # changed row n's state.  A cached embedding is fresh while the
        # counts of every node it was computed from stand still.  One
        # entry past the node space: the id that pads a receptive field,
        # never touched.
        self.touch_count = np.zeros(finder.num_nodes + 1, dtype=np.int64)
        # blocks, events, seconds spent and memory rows touched; the
        # per-block latencies go to a histogram, whose raw ring gives
        # the percentiles.
        self.counters = _obs.owned_counters(
            "repro_serve_ingest",
            ("blocks", "events", "seconds", "touched_rows"),
            help="live ingest {} total")
        self.block_hist = _obs.histogram(
            "repro_serve_ingest_block_seconds",
            help="per-block ingest latency", replace=True)

    @property
    def edge_feats(self) -> np.ndarray | None:
        """The rows of every event so far (a view of the buffer)."""
        if self._feat_buffer is None:
            return None
        return self._feat_buffer[:self._num_feats]

    def ingest(self, src: np.ndarray, dst: np.ndarray,
               timestamps: np.ndarray,
               edge_feats: np.ndarray | None = None) -> np.ndarray:
        """Ingest one event block; returns the touched memory rows.

        ``edge_feats`` is required iff the service was built over a
        stream with real edge features (the encoder captures feature rows
        at staging time, so they must exist before staging).
        """
        start = time.perf_counter()
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if len(src) == 0:
            return np.empty(0, dtype=np.int64)
        # Validate the feature block *before* mutating anything so a bad
        # request cannot leave the adjacency and the feature table out of
        # sync.
        feats = self._check_edge_feats(edge_feats, len(src))
        event_ids = self.finder.append(src, dst, timestamps)
        self._commit_edge_feats(feats)
        batch = EventBatch(src=src, dst=dst, timestamps=timestamps,
                           neg_dst=np.empty(0, dtype=np.int64),
                           event_ids=event_ids)
        with no_grad():
            # Flush the previous block's pending messages first — the
            # one-batch deferral every offline replay follows — so the
            # new block stages against up-to-date endpoint states.
            memory = self.encoder.flush_messages()
            flushed = np.asarray(memory.touched, dtype=np.int64)
            self.encoder.register_batch(batch)
            self.encoder.end_batch()
        # Sorted and unique in one sort: at a block's few hundred ids
        # numpy's hash-based unique is slower than the sort.
        touched = np.sort(np.concatenate([flushed, src, dst]))
        first = np.ones(len(touched), dtype=bool)
        np.not_equal(touched[1:], touched[:-1], out=first[1:])
        touched = touched[first]
        # `touched` is unique, so a plain indexed increment is exact.
        self.touch_count[touched] += 1
        elapsed = time.perf_counter() - start
        counters = self.counters
        counters["blocks"].inc()
        counters["events"].inc(len(src))
        counters["seconds"].inc(elapsed)
        counters["touched_rows"].inc(len(touched))
        self.block_hist.observe(elapsed)
        return touched

    def ingest_stream(self, stream: EventStream,
                      block_size: int | None = None) -> np.ndarray:
        """Ingest a whole :class:`EventStream` (optionally in blocks)."""
        if stream.num_nodes > self.finder.num_nodes:
            raise IngestError(
                f"stream node space ({stream.num_nodes}) exceeds the "
                f"service's ({self.finder.num_nodes})")
        size = block_size if block_size is not None else max(len(stream), 1)
        touched = []
        for lo in range(0, stream.num_events, size):
            hi = min(lo + size, stream.num_events)
            feats = (None if stream.edge_feats is None
                     else stream.edge_feats[lo:hi])
            touched.append(self.ingest(stream.src[lo:hi], stream.dst[lo:hi],
                                       stream.timestamps[lo:hi],
                                       edge_feats=feats))
        return (np.unique(np.concatenate(touched)) if touched
                else np.empty(0, dtype=np.int64))

    def _check_edge_feats(self, block: np.ndarray | None,
                          n: int) -> np.ndarray | None:
        """Validate one block against the event-indexed feature table."""
        table = self._feat_buffer
        if table is None or isinstance(table, ZeroEdgeFeatures):
            if block is not None and self.encoder.edge_dim:
                raise IngestError(
                    "this service indexes no real edge features; ingest "
                    "events without edge_feats")
            return None
        if block is None:
            raise IngestError(
                f"this service's stream has {table.shape[1]}-dim edge "
                "features; ingested events must provide edge_feats")
        block = np.asarray(block, dtype=table.dtype)
        if block.shape != (n, table.shape[1]):
            raise IngestError(
                f"edge_feats must have shape ({n}, {table.shape[1]}), "
                f"got {block.shape}")
        return block

    def _commit_edge_feats(self, block: np.ndarray | None) -> None:
        """Grow the feature table before messages stage (captures rows)."""
        if block is None:
            return
        n, end = self._num_feats, self._num_feats + len(block)
        if end > len(self._feat_buffer):
            grown = np.empty((max(end, 2 * len(self._feat_buffer)),
                              block.shape[1]), dtype=self._feat_buffer.dtype)
            grown[:n] = self._feat_buffer[:n]
            self._feat_buffer = grown
        self._feat_buffer[n:end] = block
        self._num_feats = end
        # Rebind so the encoder's staging gather sees the grown table.
        self.encoder._edge_feats = self.edge_feats
