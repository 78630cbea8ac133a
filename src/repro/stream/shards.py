"""Memory-mapped graph shards: one directory a whole producer fleet mounts.

``export_graph_shards`` writes an :class:`~repro.graph.events.EventStream`
(and optionally its CSR adjacency) as plain ``.npy`` files plus a small
JSON manifest each.  ``open_graph_shards`` / ``open_stream_shards`` /
``open_csr_shards`` reconstruct them — by default ``numpy.memmap``-
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
from .plan import StreamError

__all__ = ["export_stream_shards", "open_stream_shards",
           "export_graph_shards", "open_graph_shards", "open_csr_shards",
           "has_csr_shards", "shard_fingerprint"]

_STREAM_META = "stream_meta.json"
_REQUIRED = ("src", "dst", "timestamps")
_OPTIONAL = ("edge_feats", "labels")
_CSR_META = "csr_meta.json"
_CSR_ARRAYS = ("indptr", "neighbors", "times", "event_ids")


def _read_manifest(directory: str, name: str, what: str,
                   counts: tuple[str, ...]) -> dict:
    """A shard manifest whose ``counts`` entries are integers, or a
    :class:`StreamError` naming the file."""
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no {what} shards in {directory!r} "
                                f"(missing {name})")
    try:
        with open(path) as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        raise StreamError(f"damaged shard manifest {path!r}: {exc}") from exc
    for key in counts:
        value = meta.get(key) if isinstance(meta, dict) else None
        if type(value) is not int or value < 0:
            raise StreamError(f"damaged shard manifest {path!r}: {key} is "
                              f"{value!r}, not a count")
    return meta


def _read_shard(directory: str, name: str, mmap: bool,
                length: int) -> np.ndarray:
    """One ``.npy`` shard holding ``length`` rows, or a
    :class:`StreamError` naming the file."""
    path = os.path.join(directory, name)
    try:
        array = np.load(path, mmap_mode="r" if mmap else None,
                        allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise StreamError(f"damaged shard {path!r}: {exc}") from exc
    if array.ndim == 0 or len(array) != length:
        rows = "no" if array.ndim == 0 else len(array)
        raise StreamError(f"damaged shard {path!r}: {rows} rows, its "
                          f"manifest says {length}")
    return array


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
    meta = _read_manifest(directory, _STREAM_META, "stream",
                          ("num_nodes", "num_events"))
    names = meta.get("arrays")
    if (not isinstance(names, list) or not set(_REQUIRED) <= set(names)
            or not set(names) <= set(_REQUIRED + _OPTIONAL)):
        raise StreamError(f"damaged shard manifest "
                          f"{os.path.join(directory, _STREAM_META)!r}: "
                          f"arrays {names!r}")
    arrays = {name: _read_shard(directory, f"stream_{name}.npy", mmap,
                                meta["num_events"])
              for name in names}
    try:
        return EventStream(num_nodes=meta["num_nodes"],
                           name=str(meta.get("name", "")), **arrays)
    except ValueError as exc:
        raise StreamError(f"damaged stream shards in {directory!r}: "
                          f"{exc}") from exc


def export_graph_shards(stream: EventStream, directory: str,
                        finder: NeighborFinder | None = None) -> str:
    """Export the stream and (when given) its CSR adjacency together:
    one ``csr_<name>.npy`` per CSR array plus a manifest."""
    export_stream_shards(stream, directory)
    if finder is not None:
        for name in _CSR_ARRAYS:
            np.save(os.path.join(directory, f"csr_{name}.npy"),
                    np.ascontiguousarray(getattr(finder, name)))
        meta = {"num_nodes": int(finder.num_nodes),
                "num_rows": int(len(finder.neighbors))}
        with open(os.path.join(directory, _CSR_META), "w") as fh:
            json.dump(meta, fh)
    return directory


def has_csr_shards(directory: str) -> bool:
    return os.path.exists(os.path.join(directory, _CSR_META))


def open_csr_shards(directory: str, mmap: bool = True) -> NeighborFinder:
    """Reconstruct a finder from the CSR shards of
    :func:`export_graph_shards`.

    With ``mmap=True`` (default) the arrays are read-only memory maps:
    queries page in only the segments they touch, so many worker
    processes share one physical copy of the adjacency.
    """
    meta = _read_manifest(directory, _CSR_META, "CSR",
                          ("num_nodes", "num_rows"))
    lengths = {"indptr": meta["num_nodes"] + 1}
    arrays = {name: _read_shard(directory, f"csr_{name}.npy", mmap,
                                lengths.get(name, meta["num_rows"]))
              for name in _CSR_ARRAYS}
    if arrays["indptr"][0] != 0 or arrays["indptr"][-1] != meta["num_rows"]:
        raise StreamError(f"damaged shard "
                          f"{os.path.join(directory, 'csr_indptr.npy')!r}: "
                          f"offsets do not span {meta['num_rows']} rows")
    return NeighborFinder.from_arrays(arrays["indptr"], arrays["neighbors"],
                                      arrays["times"], arrays["event_ids"])


def open_graph_shards(directory: str, mmap: bool = True
                      ) -> tuple[EventStream, NeighborFinder | None]:
    """Open ``(stream, finder)``; the finder is ``None`` when the export
    carried no CSR shards.  A damaged directory — unreadable or
    truncated files, manifests that disagree with the arrays or with
    each other — is a :class:`StreamError` naming the file."""
    stream = open_stream_shards(directory, mmap=mmap)
    if not has_csr_shards(directory):
        return stream, None
    finder = open_csr_shards(directory, mmap=mmap)
    if finder.num_nodes != stream.num_nodes:
        raise StreamError(f"damaged shard directory {directory!r}: the CSR "
                          f"has {finder.num_nodes} nodes, the stream "
                          f"{stream.num_nodes}")
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
