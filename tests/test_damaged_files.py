"""Damaged artifact and snapshot files fail typed, naming the file.

A truncated ``.npz`` is a zip archive without its central directory;
numpy reports it as ``zipfile.BadZipFile``.  A member damaged behind an
intact directory opens fine and fails only when that member is read
(a CRC or inflate error).  The loaders read every member up front and
turn either into their own error, and the CLI into exit code 2 with an
``error:`` line.
"""

from __future__ import annotations

import re
import struct
import zipfile

import pytest

from repro.__main__ import main
from repro.api import ArtifactError, PretrainArtifact
from repro.serve import EmbeddingService, SnapshotError, read_snapshot

from . import parent_fixtures as parent
from . import parent_snapshot

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
