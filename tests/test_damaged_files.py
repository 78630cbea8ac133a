"""Damaged artifact, snapshot and shard files fail typed, naming the file.

A truncated ``.npz`` is a zip archive without its central directory;
numpy reports it as ``zipfile.BadZipFile``.  A member damaged behind an
intact directory opens fine and fails only when that member is read
(a CRC or inflate error).  The loaders read every member up front and
turn either into their own error, and the CLI into exit code 2 with an
``error:`` line.  A graph shard directory is checked file by file: every
``.npy`` must load and hold the rows its manifest counts.
"""

from __future__ import annotations

import json
import os
import re
import socket
import struct
import threading
import zipfile

import numpy as np
import pytest

from repro.__main__ import main
from repro.api import ArtifactError, PretrainArtifact
from repro.graph.neighbor_finder import NeighborFinder
from repro.serve import EmbeddingService, SnapshotError, read_snapshot
from repro.stream import StreamError, export_graph_shards, open_graph_shards

from . import parent_fixtures as parent
from . import parent_snapshot
from .test_stream_pipeline import make_stream

CUTS = {"half": lambda size: size // 2, "100-bytes": lambda size: 100,
        "10-bytes": lambda size: 10}


def damaged_member(source: str, tmp_path, member: str) -> str:
    """A copy of ``source`` with 16 bytes flipped mid-way into ``member``'s
    stored data; the zip directory stays intact."""
    with zipfile.ZipFile(source) as archive:
        info = archive.getinfo(member)
    with open(source, "rb") as fh:
        payload = bytearray(fh.read())
    # A local file header is 30 fixed bytes, then the name and extra field.
    name_len, extra_len = struct.unpack_from("<HH", payload,
                                             info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    assert info.compress_size > 32
    middle = start + info.compress_size // 2
    for i in range(middle, middle + 16):
        payload[i] ^= 0xFF
    path = str(tmp_path / "damaged-member.npz")
    with open(path, "wb") as fh:
        fh.write(payload)
    return path


def truncated(source: str, tmp_path, cut: str) -> str:
    with open(source, "rb") as fh:
        payload = fh.read()
    path = str(tmp_path / f"truncated-{cut}.npz")
    with open(path, "wb") as fh:
        fh.write(payload[:CUTS[cut](len(payload))])
    return path


@pytest.mark.parametrize("cut", list(CUTS))
class TestTruncatedArtifact:
    def test_load_is_an_artifact_error(self, tmp_path, cut):
        path = truncated(parent.ARTIFACT_PATH, tmp_path, cut)
        with pytest.raises(ArtifactError, match=re.escape(path)):
            PretrainArtifact.load(path)

    def test_finetune_exits_2(self, tmp_path, cut, capsys):
        path = truncated(parent.ARTIFACT_PATH, tmp_path, cut)
        assert main(["finetune", "--artifact", path, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and path in err, err


@pytest.mark.parametrize("cut", list(CUTS))
class TestTruncatedSnapshot:
    def test_read_is_a_snapshot_error(self, tmp_path, cut):
        path = truncated(parent_snapshot.SNAPSHOT_PATH, tmp_path, cut)
        with pytest.raises(SnapshotError, match=re.escape(path)):
            read_snapshot(path)
        with pytest.raises(SnapshotError, match=re.escape(path)):
            EmbeddingService.from_snapshot(parent.ARTIFACT_PATH, path)

    def test_serve_restore_exits_2(self, tmp_path, cut, capsys):
        path = truncated(parent_snapshot.SNAPSHOT_PATH, tmp_path, cut)
        assert main(["serve", "--artifact", parent.ARTIFACT_PATH,
                     "--restore-snapshot", path, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and path in err, err


class TestDamagedSnapshotMember:
    MEMBER = "base_neighbors.npy"

    def test_read_is_a_snapshot_error(self, tmp_path):
        path = damaged_member(parent_snapshot.SNAPSHOT_PATH, tmp_path,
                              self.MEMBER)
        with pytest.raises(SnapshotError, match=re.escape(path)):
            read_snapshot(path)
        with pytest.raises(SnapshotError, match=re.escape(path)):
            EmbeddingService.from_snapshot(parent.ARTIFACT_PATH, path)

    def test_serve_restore_exits_2(self, tmp_path, capsys):
        path = damaged_member(parent_snapshot.SNAPSHOT_PATH, tmp_path,
                              self.MEMBER)
        assert main(["serve", "--artifact", parent.ARTIFACT_PATH,
                     "--restore-snapshot", path, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and path in err, err


def shard_dir(tmp_path) -> str:
    stream = make_stream()
    return export_graph_shards(stream, str(tmp_path / "shards"),
                               finder=NeighborFinder(stream))


def cut_file(path: str, size) -> None:
    with open(path, "rb") as fh:
        payload = fh.read()
    with open(path, "wb") as fh:
        fh.write(payload[:size(len(payload))])


def write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


class TestDamagedShards:
    """Each damage is a ``StreamError`` naming the damaged file, with the
    arrays memory-mapped or loaded."""

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "load"])
    @pytest.mark.parametrize("cut", list(CUTS))
    @pytest.mark.parametrize("name", ["stream_src.npy", "csr_neighbors.npy"])
    def test_truncated_array(self, tmp_path, name, cut, mmap):
        directory = shard_dir(tmp_path)
        path = os.path.join(directory, name)
        cut_file(path, CUTS[cut])
        with pytest.raises(StreamError, match=re.escape(path)):
            open_graph_shards(directory, mmap=mmap)

    @pytest.mark.parametrize("name", ["stream_meta.json", "csr_meta.json"])
    @pytest.mark.parametrize("text", ["{not json", "[1, 2]",
                                      '{"num_nodes": "many"}'],
                             ids=["garbage", "not-a-dict", "bad-count"])
    def test_damaged_manifest(self, tmp_path, name, text):
        directory = shard_dir(tmp_path)
        path = os.path.join(directory, name)
        write_text(path, text)
        with pytest.raises(StreamError, match=re.escape(path)):
            open_graph_shards(directory)

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "load"])
    def test_short_array(self, tmp_path, mmap):
        """A well-formed ``.npy`` with fewer rows than the manifest."""
        directory = shard_dir(tmp_path)
        path = os.path.join(directory, "stream_dst.npy")
        np.save(path, np.load(path)[:-3])
        with pytest.raises(StreamError, match=re.escape(path)):
            open_graph_shards(directory, mmap=mmap)

    @pytest.mark.parametrize("name, key, delta", [
        ("stream_meta.json", "num_events", 1),
        ("csr_meta.json", "num_rows", -1),
        ("csr_meta.json", "num_nodes", 1)])
    def test_manifest_disagrees_with_arrays(self, tmp_path, name, key,
                                            delta):
        directory = shard_dir(tmp_path)
        path = os.path.join(directory, name)
        with open(path) as fh:
            meta = json.load(fh)
        meta[key] += delta
        write_text(path, json.dumps(meta))
        with pytest.raises(StreamError, match=re.escape(directory)):
            open_graph_shards(directory)

    def test_intact_directory_opens(self, tmp_path):
        stream, finder = open_graph_shards(shard_dir(tmp_path))
        assert finder is not None
        assert finder.num_nodes == stream.num_nodes

    def test_fabric_worker_exits_2(self, tmp_path, capsys):
        """The worker mounts its shards after connecting and before the
        handshake, so a socket that accepts and hangs up is coordinator
        enough (and a worker that got as far as the handshake fails on
        the hang-up instead of waiting for a reply)."""
        directory = shard_dir(tmp_path)
        path = os.path.join(directory, "stream_src.npy")
        cut_file(path, CUTS["half"])
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(30.0)
            hang_up = threading.Thread(
                target=lambda: listener.accept()[0].close(), daemon=True)
            hang_up.start()
            port = listener.getsockname()[1]
            code = main(["fabric-worker", "--connect", f"127.0.0.1:{port}",
                         "--shards", directory, "--retry-for", "0"])
            hang_up.join(30.0)
        assert not hang_up.is_alive()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and path in err, err
        assert "Traceback" not in err
        assert err.splitlines()[1].startswith("hint:")
