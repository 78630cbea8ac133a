"""Array persistence: a flat dict of named arrays in one ``.npz`` file.

Uses ``numpy.savez_compressed`` so files are portable, with no pickle
involved.  Pre-training artifacts (:class:`repro.api.PretrainArtifact`)
are written through :func:`save_arrays`.
"""

from __future__ import annotations

import os
import zipfile
import zlib

import numpy as np

__all__ = ["save_arrays", "load_arrays", "NPZ_CORRUPTION_ERRORS"]

# What reading a damaged ``.npz`` raises besides ``OSError`` /
# ``ValueError``: a zip archive without its central directory (a
# truncated file), or a member that fails to inflate or ends early.
NPZ_CORRUPTION_ERRORS = (EOFError, zipfile.BadZipFile, zlib.error)


def save_arrays(path: str, arrays: dict[str, np.ndarray]) -> None:
    """Persist a flat dict of arrays (memory states, checkpoints...)."""
    _ensure_parent(path)
    np.savez_compressed(path, **arrays)


def load_arrays(path: str) -> dict[str, np.ndarray]:
    with np.load(path) as payload:
        return {key: payload[key] for key in payload.files}


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
