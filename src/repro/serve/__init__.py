"""Online serving over pre-trained CPDG artifacts (``repro.serve``).

The runtime layer of *pre-train once, reuse everywhere* (paper §V): a
saved :class:`~repro.api.artifact.PretrainArtifact` becomes a long-lived
query engine whose memory keeps evolving as live events arrive.

* :class:`EmbeddingService` — ``from_artifact(path)`` →
  ``embed`` / ``score_links`` / ``top_k`` / ``ingest``, plus
  ``snapshot(path)`` / ``from_snapshot`` replica persistence;
* :class:`DynamicNeighborFinder` — append-only temporal CSR (delta
  buffer + periodic compaction) plus a most-recent ring, answering the
  encoder's neighbour query (``batch_most_recent``) on a live graph;
* :class:`BackgroundCompactor` — generation-swapped delta merges off the
  request path (the default; disable per ``ServeConfig``);
* :class:`LiveIngestor` — replay-equivalent memory advancement through
  the sparse-delta staging path, maintaining the per-row touch counts;
* :class:`MicroBatchPlanner` / :class:`RowCache` — request coalescing
  and an array-backed row cache that serves a row only while the nodes
  it was computed from are untouched;
* :class:`CoarseQuantIndex` — pure-numpy IVF shortlist for ``top_k``
  over large candidate catalogs (always exactly rescored);
* :mod:`repro.serve.http` — stdlib JSON HTTP frontend plus in-process
  and HTTP clients (``repro serve``).
"""

from .dynamic_finder import (BackgroundCompactor, DynamicNeighborFinder,
                             IngestError)
from .http import HttpClient, LocalClient, start_http_server
from .index import CoarseQuantIndex
from .ingest import LiveIngestor
from .planner import MicroBatchPlanner, RowCache
from .service import EmbeddingService, ServeConfig, ServeError
from .snapshot import (SnapshotError, read_snapshot, verify_snapshot_meta,
                       write_snapshot)

__all__ = [
    "DynamicNeighborFinder", "IngestError", "BackgroundCompactor",
    "LiveIngestor",
    "MicroBatchPlanner", "RowCache",
    "CoarseQuantIndex",
    "EmbeddingService", "ServeConfig", "ServeError",
    "SnapshotError", "read_snapshot", "write_snapshot",
    "verify_snapshot_meta",
    "LocalClient", "HttpClient", "start_http_server",
]
