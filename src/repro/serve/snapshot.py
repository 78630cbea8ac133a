"""Snapshot/restore of a serving replica's live state.

A replica's state beyond the immutable artifact is a handful of flat
arrays: the evolved memory matrix + last-update clock, the pending raw
messages (the TGN one-batch deferral), the dynamic adjacency (base CSR +
un-compacted delta buffer), the grown edge-feature table, the candidate
catalog and the touch counts the row cache reads.  :func:`write_snapshot`
persists exactly those as a single ``.npz`` (artifact-style: no pickle,
versioned JSON meta), and :meth:`EmbeddingService.from_snapshot
<repro.serve.service.EmbeddingService.from_snapshot>` rebuilds a replica
from it **without replaying the ingested history** — bit-identical to
the replica that wrote it (asserted in ``tests/test_serve_fastpath.py``).
A member the restore does not ask for, such as the per-node touch-time
clock older snapshots carry, is read (its CRC checked) and ignored.
The embedding row cache is deliberately not snapshotted: its rows are
recomputable, and a restored replica simply starts with a cold cache.
"""

from __future__ import annotations

import json
import time

import numpy as np

from ..nn.serialization import NPZ_CORRUPTION_ERRORS

__all__ = ["SNAPSHOT_VERSION", "SnapshotError", "read_snapshot",
           "verify_snapshot_meta", "write_snapshot"]

SNAPSHOT_VERSION = 1


class SnapshotError(RuntimeError):
    """The snapshot file is missing, malformed, or mismatches the artifact."""


def write_snapshot(service, path: str) -> dict:
    """Persist ``service``'s live state to ``path`` (npz); returns meta.

    The caller must hold the service lock (``EmbeddingService.snapshot``
    does) so the arrays form one consistent cut: memory, staged
    messages, adjacency and counters all as of the same ingested prefix.
    """
    encoder = service.encoder
    finder = service.finder
    ingestor = service._ingestor
    memory_state, last_update = encoder.memory_snapshot()
    meta = {
        "version": SNAPSHOT_VERSION,
        "created_unix": time.time(),
        "backbone": service.backbone,
        "num_nodes": int(service.artifact.num_nodes),
        "dtype": str(np.dtype(service._dtype)),
        "artifact_fingerprint": service.artifact.dataset_fingerprint,
        "num_events": int(finder.num_events),
        "delta_events": int(finder.delta_events),
        "compactions": int(finder.compactions),
        "ingested_events": int(ingestor.counters["events"]),
        "ingested_blocks": int(ingestor.counters["blocks"]),
    }
    arrays: dict[str, np.ndarray] = {
        "memory_state": memory_state,
        "last_update": last_update,
        "candidates": np.asarray(service._candidates, dtype=np.int64),
        # Without the trailing padding-id entry (never touched).
        "touch_count": ingestor.touch_count[:-1],
    }
    base = finder._base
    arrays["base_indptr"] = np.asarray(base.indptr)
    arrays["base_neighbors"] = np.asarray(base.neighbors)
    arrays["base_times"] = np.asarray(base.times)
    arrays["base_event_ids"] = np.asarray(base.event_ids)
    empty_i, empty_f = (np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=np.float64))
    arrays["delta_src"] = (np.concatenate(finder._buf_src)
                           if finder._buf_src else empty_i)
    arrays["delta_dst"] = (np.concatenate(finder._buf_dst)
                           if finder._buf_dst else empty_i)
    arrays["delta_ts"] = (np.concatenate(finder._buf_ts)
                          if finder._buf_ts else empty_f)
    arrays["delta_eid"] = (np.concatenate(finder._buf_eid)
                           if finder._buf_eid else empty_i)

    staged = encoder.memory.pending()
    meta["has_staged"] = staged is not None
    if staged is not None:
        arrays["staged_nodes"] = staged.nodes
        arrays["staged_self_state"] = staged.self_state
        arrays["staged_other_state"] = staged.other_state
        arrays["staged_delta_t"] = staged.delta_t
        arrays["staged_time"] = staged.time
        arrays["staged_event_ids"] = staged.event_ids
        meta["staged_has_edge"] = staged.edge_feat is not None
        if staged.edge_feat is not None:
            arrays["staged_edge_feat"] = staged.edge_feat

    table = ingestor.edge_feats
    if isinstance(table, np.ndarray):
        meta["edge_mode"] = "table"
        arrays["edge_feats"] = table
    elif encoder.edge_dim:
        meta["edge_mode"] = "zero"
    else:
        meta["edge_mode"] = "none"

    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    return meta


def read_snapshot(path: str) -> tuple[dict, dict]:
    """Load a snapshot file; returns ``(meta, arrays)``.

    Every member is read (and its CRC checked) here, so a damaged file
    fails as a :class:`SnapshotError` naming it, never later mid-restore.
    """
    try:
        with np.load(path, allow_pickle=False) as payload:
            data = {key: payload[key] for key in payload.files}
    except (OSError, ValueError, *NPZ_CORRUPTION_ERRORS) as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    if "meta_json" not in data:
        raise SnapshotError(f"{path!r} is not a serve snapshot "
                            "(missing meta_json)")
    meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
    version = meta.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot format v{version} is not supported "
            f"(this build reads v{SNAPSHOT_VERSION})")
    return meta, data


def verify_snapshot_meta(meta: dict, artifact) -> None:
    """Reject restoring a snapshot onto the wrong artifact."""
    if meta["num_nodes"] != int(artifact.num_nodes):
        raise SnapshotError(
            f"snapshot node space ({meta['num_nodes']}) does not match "
            f"the artifact's ({artifact.num_nodes})")
    snap_fp = meta.get("artifact_fingerprint") or ""
    art_fp = artifact.dataset_fingerprint or ""
    if snap_fp and art_fp and snap_fp != art_fp:
        raise SnapshotError(
            f"snapshot was written for artifact fingerprint {snap_fp}, "
            f"not {art_fp}; restore with the artifact it was taken from")
