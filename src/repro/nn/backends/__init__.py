"""Kernel backends behind the compiled tape.

:mod:`repro.nn.compile` replays a traced step as a straight-line
``_Program`` — a flat list of ``(primitive, buffers)`` with known shapes
and dtypes, which is exactly the IR an alternative kernel backend wants.
This package is the seam: a :class:`KernelBackend` maps primitive names
to replacement kernels consulted by ``_Replay.apply`` (forward),
``_BwdStep.run`` (VJP) and ``_FusedChain.run`` (whole fused backward
chains lowered to ONE generated kernel), always falling back to the
primitive's own numpy kernel when the backend has nothing better.

Backends
--------
``numpy``
    The baseline: every lookup returns ``None``, so the replay engine
    runs the primitives' own (numpy) kernels — bit-identical to eager.
``numba``
    :mod:`.numba_backend` — a jitted per-primitive kernel table
    (``@njit(cache=True)`` out-param kernels for the gather/scatter and
    elementwise primitives) plus whole-chain compilation: each fused
    elementwise backward chain is lowered to a single generated-and-
    jitted loop keyed by the chain's op signature, with an in-process
    compilation cache and warmup off the hot path.  **Import-gated**: if
    numba is not installed, :func:`resolve_backend` transparently falls
    back to ``numpy`` (one warning) and behavior is unchanged.
``pyloop``
    :mod:`.pyloop_backend` — executes the *same generated chain source*
    as plain Python.  Slow; exists so the code generator is verifiable
    in environments without numba (and as a reference in tests).

Besides per-program kernel binding there is one *global* dispatch used
by eager code: :func:`scatter_add_rows` / :func:`scatter_max_rows`, the
row-scatter workhorses behind the ``scatter_*`` readout primitives and
the row-sparse ``embedding_lookup`` backward
(:class:`~repro.nn.autograd.SparseRowGrad`).  They route through the
*active* backend — ``numpy`` unless :func:`set_active_backend` /
:class:`use_backend` says otherwise — so the dominant scatter cost
accelerates on the eager path too.  The numpy ``scatter_add_rows`` is
:func:`sum_duplicate_rows` (stable sort + ``np.add.reduceat``): about
2x ``np.add.at``'s speed, equal to it to ``n_dup * eps``, not bit for bit.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "KernelBackend", "NumpyBackend", "BackendUnavailable", "BACKEND_NAMES",
    "available_backends", "get_backend", "resolve_backend",
    "numba_available", "active_backend", "set_active_backend", "use_backend",
    "scatter_add_rows", "scatter_max_rows", "sum_duplicate_rows",
]

BACKEND_NAMES = ("numpy", "numba", "pyloop")

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


class BackendUnavailable(RuntimeError):
    """The requested backend's runtime dependency is not importable."""


class KernelBackend:
    """Kernel lookup interface consulted by the compiled replay engine.

    Every hook may return ``None`` ("I have nothing better"), in which
    case the caller uses the primitive's own numpy kernel.  Returned
    kernels must honor the exact :class:`~repro.nn.autograd.Primitive`
    calling conventions (``fwd(args, params, need_ctx, out)`` returning
    ``(data, ctx)`` with the *same ctx structure* as the numpy twin, and
    ``vjp(ctx, grad, needs, params)``), so forward/backward kernels from
    different backends compose freely.
    """

    name = "numpy"

    def fwd_kernel(self, prim):
        """Replacement forward kernel for ``prim`` (a Primitive), or None."""
        return None

    def vjp_kernel(self, prim):
        """Replacement VJP kernel for ``prim``, or None."""
        return None

    def compile_chain(self, members, dtype):
        """Compile one fused elementwise backward chain, or None.

        ``members`` is a build-time description of the chain: a sequence
        of ``(prim_name, in_shapes, grad_pos, out_shape)`` tuples (see
        :mod:`.chaingen`).  Returns a
        :class:`~repro.nn.backends.chaingen.ChainKernel` whose ``run``
        executes the whole chain as one pass over the gradient buffer.
        """
        return None

    # -- global scatter dispatch (eager path) --------------------------
    def scatter_add_rows(self, out, indices, values) -> None:
        """``out[indices] += values``; duplicate indices add up."""
        rows, sums = sum_duplicate_rows(indices, values)
        if len(rows) and rows[0] < 0:
            # Wrapped ids could collide with their positive twins.
            rows, sums = sum_duplicate_rows(rows % len(out), sums)
        out[rows] += sums

    def scatter_max_rows(self, out, indices, values) -> None:
        """``out[indices] = max(out[indices], values)`` elementwise."""
        np.maximum.at(out, indices, values)


class NumpyBackend(KernelBackend):
    """The baseline backend: primitives' own kernels, bit-identical."""

    name = "numpy"


_INSTANCES: dict[str, KernelBackend] = {}
_WARNED: set[str] = set()


def numba_available() -> bool:
    """Whether the optional numba dependency is importable."""
    from . import numba_backend
    return numba_backend.available()


def available_backends() -> dict[str, bool]:
    """Name → availability of every registered backend."""
    return {"numpy": True, "numba": numba_available(), "pyloop": True}


def get_backend(name: str) -> KernelBackend:
    """The backend registered under ``name`` (singleton per process).

    Raises :class:`BackendUnavailable` when the backend exists but its
    runtime dependency is missing; use :func:`resolve_backend` for the
    transparent-fallback behavior config plumbing wants.
    """
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown kernel backend {name!r}; expected one "
                         f"of {BACKEND_NAMES}")
    instance = _INSTANCES.get(name)
    if instance is None:
        if name == "numpy":
            instance = NumpyBackend()
        elif name == "numba":
            from . import numba_backend
            if not numba_backend.available():
                raise BackendUnavailable(
                    "the 'numba' kernel backend requires the optional "
                    "numba package (pip install repro[numba])")
            instance = numba_backend.NumbaBackend()
        else:
            from . import pyloop_backend
            instance = pyloop_backend.PyLoopBackend()
        _INSTANCES[name] = instance
    return instance


def resolve_backend(name=None) -> KernelBackend:
    """Resolve a backend name with transparent numpy fallback.

    ``None`` resolves to the currently *active* backend (numpy unless
    :func:`set_active_backend` changed it); an unavailable backend
    resolves to numpy with a one-time warning, so ``backend="numba"``
    in a config is always safe to carry around.
    """
    if name is None:
        return _ACTIVE
    if isinstance(name, KernelBackend):
        return name
    try:
        return get_backend(name)
    except BackendUnavailable as exc:
        if name not in _WARNED:
            _WARNED.add(name)
            warnings.warn(f"{exc}; falling back to the numpy backend",
                          RuntimeWarning, stacklevel=2)
        return get_backend("numpy")


# ----------------------------------------------------------------------
# active backend (eager-path scatter dispatch)
# ----------------------------------------------------------------------
_ACTIVE: KernelBackend = get_backend("numpy")


def active_backend() -> KernelBackend:
    return _ACTIVE


def set_active_backend(name) -> KernelBackend:
    """Install the process-wide active backend; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = resolve_backend(name if name is not None else "numpy")
    return previous


class use_backend:
    """Context manager scoping :func:`set_active_backend`."""

    def __init__(self, name):
        self._name = name
        self._previous: KernelBackend | None = None

    def __enter__(self):
        self._previous = set_active_backend(self._name)
        return active_backend()

    def __exit__(self, exc_type, exc, tb):
        set_active_backend(self._previous)
        return False


def scatter_add_rows(out: np.ndarray, indices, values) -> None:
    """``out[indices] += values`` (duplicates add up), active backend."""
    _ACTIVE.scatter_add_rows(out, indices, values)


def scatter_max_rows(out: np.ndarray, indices, values) -> None:
    """``np.maximum.at`` routed through the active backend."""
    _ACTIVE.scatter_max_rows(out, indices, values)
