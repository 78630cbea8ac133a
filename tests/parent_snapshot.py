"""A serve snapshot frozen at the commit before the one-class memory.

That change folded the per-batch memory view and the raw-message store
into :class:`~repro.dgnn.memory.Memory` and moved snapshot/restore onto
its public ``pending()`` / ``stage()``.  Neither may change what a
snapshot holds or what a replica restored from one serves.  The files
under ``tests/fixtures/`` record what the parent commit produced:

``parent_snapshot.npz``
    the live state of a cache-free service over ``parent_artifact.npz``
    (:mod:`tests.parent_fixtures`) after one ingested block, so that
    block's raw messages are still pending;
``parent_snapshot_rows.npz``
    the rows a replica restored from that snapshot served after
    ingesting one more block.

They were written by running this module against the parent's sources::

    PYTHONPATH=<parent checkout>/src python -m tests.parent_snapshot

Everything here uses only API that exists at both commits.

:data:`REMOVED` names the members the recording holds that a snapshot
written now deliberately lacks; a restore reads and ignores them.
"""

from __future__ import annotations

import os

import numpy as np

from repro.serve import EmbeddingService

from . import parent_fixtures as parent

SNAPSHOT_PATH = os.path.join(parent.FIXTURES, "parent_snapshot.npz")
ROWS_PATH = os.path.join(parent.FIXTURES, "parent_snapshot_rows.npz")

EMBED_TS = 140.0

# The per-node touch-time clock, which only the non-exact row cache read.
REMOVED = ("touch_time",)


def block(seed: int, t0: float, events: int = 24) -> dict:
    """One ingest block of ``events`` events in ``(t0, t0 + 10)``."""
    rng = np.random.default_rng(seed)
    half = parent.NUM_NODES // 2
    return dict(src=rng.integers(0, half, events),
                dst=rng.integers(half, parent.NUM_NODES, events),
                timestamps=np.sort(rng.uniform(t0, t0 + 10.0, events)))


def write_snapshot(path: str) -> None:
    """Snapshot a service with the first block's messages pending."""
    service = EmbeddingService.from_artifact(
        parent.ARTIFACT_PATH, history=parent.tiny_stream(), cache_capacity=0)
    try:
        service.ingest(**block(seed=1, t0=110.0))
        service.snapshot(path)
    finally:
        service.close()


def restored_rows(path: str) -> np.ndarray:
    """Rows a replica restored from ``path`` serves after one more block."""
    service = EmbeddingService.from_snapshot(parent.ARTIFACT_PATH, path,
                                             cache_capacity=0)
    try:
        service.ingest(**block(seed=2, t0=125.0))
        return np.asarray(service.embed(parent.EMBED_NODES, EMBED_TS))
    finally:
        service.close()


def main() -> None:
    write_snapshot(SNAPSHOT_PATH)
    np.savez_compressed(ROWS_PATH, rows=restored_rows(SNAPSHOT_PATH))


if __name__ == "__main__":
    main()
