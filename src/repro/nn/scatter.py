"""Row-scatter kernels shared by eager autograd and the compiled tape.

:func:`scatter_add_rows` / :func:`scatter_max_rows` are the workhorses
behind the ``scatter_*`` readout primitives and the row-sparse
``embedding_lookup`` backward (:class:`~repro.nn.autograd.SparseRowGrad`).
Eager code and compiled replay call the same functions, so the two stay
bit-identical to each other.  ``scatter_add_rows`` is
:func:`sum_duplicate_rows` (stable sort + ``np.add.reduceat``): about
2x ``np.add.at``'s speed, equal to it to ``n_dup * eps``, not bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["scatter_add_rows", "scatter_max_rows", "sum_duplicate_rows"]

# ``reduceat`` over axis 0 walks the rows once per column, so it is only
# fast while the rows it walks stay in cache (measured: 0.13 ms for 1.2 MB
# of rows, 1.7 ms for 2.4 MB); runs are reduced this many bytes at a time.
_REDUCE_BLOCK_BYTES = 1 << 19


def sum_duplicate_rows(indices, values) -> tuple[np.ndarray, np.ndarray]:
    """Sum the rows of ``values`` (``indices.shape + tail``) sharing an index.

    Returns the distinct indices, ascending, and one summed ``tail`` row
    each: a stable argsort, then ``np.add.reduceat`` over the runs of
    equal indices, so each sum adds its rows in their original order.
    """
    idx = np.asarray(indices)
    values = np.asarray(values)
    rows = values.reshape((idx.size,) + values.shape[idx.ndim:])
    idx = idx.reshape(-1)
    if idx.size == 0:
        return idx, rows
    order = np.argsort(idx, kind="stable")
    idx = idx[order]
    starts = np.flatnonzero(np.concatenate(([True], idx[1:] != idx[:-1])))
    sums = np.empty((len(starts),) + rows.shape[1:], dtype=rows.dtype)
    per_block = max(1, _REDUCE_BLOCK_BYTES // max(rows[:1].nbytes, 1))
    cuts = np.searchsorted(starts, np.arange(0, idx.size, per_block))
    ends = np.append(starts, idx.size)
    for a, b in zip(cuts, np.append(cuts[1:], len(starts))):
        if a < b:                     # runs a..b-1 start inside this block
            lo, hi = ends[a], ends[b]
            np.add.reduceat(rows[order[lo:hi]], starts[a:b] - lo, axis=0,
                            out=sums[a:b])
    return idx[starts], sums


def scatter_add_rows(out: np.ndarray, indices, values) -> None:
    """``out[indices] += values``; duplicate indices add up."""
    rows, sums = sum_duplicate_rows(indices, values)
    if len(rows) and rows[0] < 0:
        # Wrapped ids could collide with their positive twins.
        rows, sums = sum_duplicate_rows(rows % len(out), sums)
    out[rows] += sums


def scatter_max_rows(out: np.ndarray, indices, values) -> None:
    """``out[indices] = max(out[indices], values)`` elementwise."""
    np.maximum.at(out, indices, values)
