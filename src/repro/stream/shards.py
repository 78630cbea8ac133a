"""Memory-mapped graph shards: one directory a whole producer fleet mounts.

``export_graph_shards`` writes an :class:`~repro.graph.events.EventStream`
(and optionally its CSR adjacency, via
:meth:`~repro.graph.neighbor_finder.NeighborFinder.export`) as plain
``.npy`` files plus a small JSON manifest.  ``open_graph_shards`` /
``open_stream_shards`` reconstruct them — by default ``numpy.memmap``-
backed and read-only, so N worker processes share one physical copy of
the event arrays and adjacency through the page cache instead of each
unpickling a private replica.  :class:`~repro.fabric.FabricProducer` is
the one writer: handed a stream, it exports it (CSR included when its
spec samples) for its workers.

``shard_fingerprint`` digests a shard directory (manifests + per-file
size and head/tail bytes) so a fabric coordinator
(:mod:`repro.fabric`) can reject workers that mounted a different graph.

This flat layout is the only one: every fabric worker maps the same
``csr_*.npy`` files, and the kernel pages them in 4 kB at a time, so a
worker's resident set already follows the node ranges its leases touch.  A ``--shard-dir`` reused from a build
that also wrote a range-split copy (``csr_range*.npy`` /
``csr_ranges.json``) still works: readers never open those files, though
they do enter ``shard_fingerprint`` — on the coordinator's and the
workers' side alike.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from ..graph.events import EventStream
from ..graph.neighbor_finder import NeighborFinder

__all__ = ["export_stream_shards", "open_stream_shards",
           "export_graph_shards", "open_graph_shards", "has_csr_shards",
           "shard_fingerprint"]

_STREAM_META = "stream_meta.json"
_REQUIRED = ("src", "dst", "timestamps")
_OPTIONAL = ("edge_feats", "labels")
_CSR_META = "csr_meta.json"


def export_stream_shards(stream: EventStream, directory: str) -> str:
    """Write the stream's column arrays as ``.npy`` shards + manifest."""
    os.makedirs(directory, exist_ok=True)
    present: list[str] = []
    for name in _REQUIRED + _OPTIONAL:
        value = getattr(stream, name)
        if value is None:
            continue
        np.save(os.path.join(directory, f"stream_{name}.npy"),
                np.ascontiguousarray(value))
        present.append(name)
    meta = {"num_nodes": int(stream.num_nodes),
            "num_events": int(stream.num_events),
            "name": stream.name,
            "arrays": present}
    with open(os.path.join(directory, _STREAM_META), "w") as fh:
        json.dump(meta, fh)
    return directory


def open_stream_shards(directory: str, mmap: bool = True) -> EventStream:
    """Reconstruct an :class:`EventStream` from exported shards.

    With ``mmap=True`` the arrays are read-only memory maps; the stream
    is already time-sorted, so construction never needs to write them.
    """
    meta_path = os.path.join(directory, _STREAM_META)
    if not os.path.exists(meta_path):
        raise FileNotFoundError(f"no stream shards in {directory!r} "
                                f"(missing {_STREAM_META})")
    with open(meta_path) as fh:
        meta = json.load(fh)
    mode = "r" if mmap else None
    arrays = {name: np.load(os.path.join(directory, f"stream_{name}.npy"),
                            mmap_mode=mode)
              for name in meta["arrays"]}
    return EventStream(num_nodes=meta["num_nodes"], name=meta["name"],
                       **arrays)


def export_graph_shards(stream: EventStream, directory: str,
                        finder: NeighborFinder | None = None) -> str:
    """Export the stream and (when given) its CSR adjacency together."""
    export_stream_shards(stream, directory)
    if finder is not None:
        finder.export(directory)
    return directory


def has_csr_shards(directory: str) -> bool:
    return os.path.exists(os.path.join(directory, _CSR_META))


def open_graph_shards(directory: str, mmap: bool = True
                      ) -> tuple[EventStream, NeighborFinder | None]:
    """Open ``(stream, finder)``; the finder is ``None`` when the export
    carried no CSR shards."""
    stream = open_stream_shards(directory, mmap=mmap)
    finder = (NeighborFinder.open(directory, mmap=mmap)
              if has_csr_shards(directory) else None)
    return stream, finder


# ----------------------------------------------------------------------
# shard-directory fingerprint (the fabric handshake's graph identity)
# ----------------------------------------------------------------------

def shard_fingerprint(directory: str) -> str:
    """Cheap content digest of a shard directory.

    Hashes every manifest in full plus, for each ``.npy`` shard, its
    name, size and head/tail 64 KiB — enough to distinguish different
    graphs without streaming hundreds of millions of edges through the
    hash.  Deterministic across machines for identical exports.
    """
    digest = hashlib.sha256()
    names = sorted(name for name in os.listdir(directory)
                   if name.endswith((".npy", ".json")))
    if not names:
        raise FileNotFoundError(f"no shard files in {directory!r}")
    window = 65536
    for name in names:
        path = os.path.join(directory, name)
        size = os.path.getsize(path)
        digest.update(f"{name}:{size}:".encode())
        with open(path, "rb") as fh:
            digest.update(fh.read(window))
            if size > window:
                fh.seek(max(size - window, 0))
                digest.update(fh.read(window))
    return digest.hexdigest()
