"""Numba kernel backend: jitted primitive table + fused-chain compilation.

Import-gated: this module always imports; :func:`available` says whether
numba itself did.  When it is present, :class:`NumbaBackend` provides

- a static per-primitive kernel table — ``@njit(cache=True)`` out-param
  loop kernels for the gather/scatter primitives whose numpy twins lean
  on ``np.add.at`` / ``np.maximum.at`` (notoriously slow buffered
  ufunc.at paths) plus a single-pass stable sigmoid, exposed through
  shims that honor the exact ``Primitive.fwd`` / ``Primitive.vjp``
  calling conventions and ctx layouts;
- whole-chain compilation: each fused elementwise backward chain lowers
  to ONE ``njit``-ed single-loop kernel generated by
  :mod:`~repro.nn.backends.chaingen`, cached by the chain's op
  signature + dtype and warmed with 1-element arrays at build time so
  jit compilation never lands on the replay hot path (generated source
  has no backing file, so these use an in-process cache rather than
  ``cache=True``);
- row-scatter overrides for the eager-path global dispatch
  (``scatter_add_rows`` / ``scatter_max_rows``), which accelerate the
  row-sparse ``embedding_lookup`` backward and the scatter readout
  forwards even outside compiled replay.

Every shim returns ``None`` for shapes/dtypes it does not handle (non
2-D values, non-float buffers), in which case the bound kernel falls
back to the primitive's numpy implementation — per-kernel transparent
fallback, as the backend contract requires.  Scatter loops accumulate
in sequential row order (``np.add.at``'s), the numpy backend sums each
run of duplicates first, and elementwise kernels may differ from numpy
by rounding of intermediates, which is why the equivalence suite checks
all of them under dtype-scaled tolerances.  The BLAS-bound ``linear`` /
``gru_cell`` / ``time_encode`` primitives keep their numpy kernels.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised via the numba CI job
    import numba
except ImportError:  # pragma: no cover
    numba = None

from . import KernelBackend
from .chaingen import (CHAIN_KERNEL_NAME, ChainKernel, chain_signature,
                       plan_chain, render_source)


def available() -> bool:
    """True when the numba runtime imported successfully."""
    return numba is not None


def _rows_cols(shape):
    cols = 1
    for dim in shape[1:]:
        cols *= int(dim)
    return int(shape[0]), cols


if numba is not None:
    _njit = numba.njit(cache=True)

    @_njit
    def _k_scatter_add2(values, groups, out):
        for r in range(values.shape[0]):
            g = groups[r]
            for c in range(values.shape[1]):
                out[g, c] += values[r, c]

    @_njit
    def _k_scatter_max2(values, groups, out):
        for r in range(values.shape[0]):
            g = groups[r]
            for c in range(values.shape[1]):
                v = values[r, c]
                if v > out[g, c]:
                    out[g, c] = v

    @_njit
    def _k_scatter_mean_fwd(values, groups, sums, counts):
        for r in range(values.shape[0]):
            g = groups[r]
            counts[g] += 1.0
            for c in range(values.shape[1]):
                sums[g, c] += values[r, c]
        for i in range(counts.shape[0]):
            if counts[i] < 1.0:
                counts[i] = 1.0
        for i in range(sums.shape[0]):
            for c in range(sums.shape[1]):
                sums[i, c] /= counts[i]

    @_njit
    def _k_scatter_max_ctx(values, groups, maxes, argmask, ties):
        for r in range(values.shape[0]):
            g = groups[r]
            for c in range(values.shape[1]):
                m = 1.0 if values[r, c] == maxes[g, c] else 0.0
                argmask[r, c] = m
                ties[g, c] += m
        for r in range(values.shape[0]):
            g = groups[r]
            for c in range(values.shape[1]):
                t = ties[g, c]
                if t < 1.0:
                    t = 1.0
                argmask[r, c] /= t

    @_njit
    def _k_neginf_to_zero(maxes, out):
        for i in range(maxes.shape[0]):
            for c in range(maxes.shape[1]):
                v = maxes[i, c]
                if np.isinf(v) and v < 0.0:
                    v = 0.0
                out[i, c] = v

    @_njit
    def _k_gather_rows(src, groups, out):
        for r in range(groups.shape[0]):
            g = groups[r]
            for c in range(src.shape[1]):
                out[r, c] = src[g, c]

    @_njit
    def _k_gather_div_rows(src, groups, counts, out):
        for r in range(groups.shape[0]):
            g = groups[r]
            for c in range(src.shape[1]):
                out[r, c] = src[g, c] / counts[g]

    @_njit
    def _k_gather_mul_rows(src, groups, mask, out):
        for r in range(groups.shape[0]):
            g = groups[r]
            for c in range(src.shape[1]):
                out[r, c] = src[g, c] * mask[r, c]

    @_njit
    def _k_sigmoid(x, out):
        for i in range(x.shape[0]):
            v = x[i]
            if v > 500.0:
                v = 500.0
            elif v < -500.0:
                v = -500.0
            if v >= 0.0:
                out[i] = 1.0 / (1.0 + np.exp(-v))
            else:
                e = np.exp(v)
                out[i] = e / (1.0 + e)


def _groups_of(params):
    return np.ascontiguousarray(params["groups"], dtype=np.int64)


def _sigmoid_fwd_nb(args, params, need_ctx, out):
    (x,) = args
    if x.dtype.kind != "f":
        return None
    data = out.get(x.shape) if out is not None else np.empty(x.shape,
                                                             x.dtype)
    _k_sigmoid(np.ascontiguousarray(x).reshape(-1), data.reshape(-1))
    return data, (data,)


def _scatter_sum_fwd_nb(args, params, need_ctx, out):
    (values,) = args
    if values.ndim != 2 or values.dtype.kind != "f":
        return None
    shape = (params["num_groups"], values.shape[-1])
    data = out.get(shape) if out is not None else np.empty(shape,
                                                           values.dtype)
    data.fill(0.0)
    _k_scatter_add2(np.ascontiguousarray(values), _groups_of(params), data)
    return data, None


def _scatter_mean_fwd_nb(args, params, need_ctx, out):
    (values,) = args
    if values.ndim != 2 or values.dtype.kind != "f":
        return None
    num_groups = params["num_groups"]
    shape = (num_groups, values.shape[-1])
    data = out.get(shape) if out is not None else np.empty(shape,
                                                           values.dtype)
    data.fill(0.0)
    counts = np.zeros(num_groups, dtype=values.dtype)
    _k_scatter_mean_fwd(np.ascontiguousarray(values), _groups_of(params),
                        data, counts)
    return data, ((counts,) if need_ctx else None)


def _scatter_max_fwd_nb(args, params, need_ctx, out):
    (values,) = args
    if values.ndim != 2 or values.dtype.kind != "f":
        return None
    groups = _groups_of(params)
    contiguous = np.ascontiguousarray(values)
    maxes = np.full((params["num_groups"], values.shape[-1]), -np.inf,
                    dtype=values.dtype)
    _k_scatter_max2(contiguous, groups, maxes)
    ctx = None
    if need_ctx:
        argmask = np.empty_like(contiguous)
        ties = np.zeros(maxes.shape, dtype=values.dtype)
        _k_scatter_max_ctx(contiguous, groups, maxes, argmask, ties)
        ctx = (argmask,)
    data = out.get(maxes.shape) if out is not None else np.empty_like(maxes)
    _k_neginf_to_zero(maxes, data)
    return data, ctx


def _scatter_sum_vjp_nb(ctx, grad, needs, params):
    if grad.ndim != 2 or grad.dtype.kind != "f":
        return None
    groups = _groups_of(params)
    out = np.empty((groups.shape[0], grad.shape[1]), dtype=grad.dtype)
    _k_gather_rows(np.ascontiguousarray(grad), groups, out)
    return (out,)


def _scatter_mean_vjp_nb(ctx, grad, needs, params):
    if grad.ndim != 2 or grad.dtype.kind != "f":
        return None
    (safe_counts,) = ctx
    groups = _groups_of(params)
    out = np.empty((groups.shape[0], grad.shape[1]), dtype=grad.dtype)
    _k_gather_div_rows(np.ascontiguousarray(grad), groups,
                       np.ascontiguousarray(safe_counts, dtype=grad.dtype),
                       out)
    return (out,)


def _scatter_max_vjp_nb(ctx, grad, needs, params):
    if grad.ndim != 2 or grad.dtype.kind != "f":
        return None
    (argmask,) = ctx
    groups = _groups_of(params)
    out = np.empty((groups.shape[0], grad.shape[1]), dtype=grad.dtype)
    _k_gather_mul_rows(np.ascontiguousarray(grad), groups,
                       np.ascontiguousarray(argmask, dtype=grad.dtype), out)
    return (out,)


_FWD_SHIMS = {
    "sigmoid": _sigmoid_fwd_nb,
    "scatter_sum": _scatter_sum_fwd_nb,
    "scatter_mean": _scatter_mean_fwd_nb,
    "scatter_max": _scatter_max_fwd_nb,
}

_VJP_SHIMS = {
    "scatter_sum": _scatter_sum_vjp_nb,
    "scatter_mean": _scatter_mean_vjp_nb,
    "scatter_max": _scatter_max_vjp_nb,
}


class NumbaBackend(KernelBackend):
    """Jitted kernel table + compiled fused chains (requires numba)."""

    name = "numba"

    def __init__(self):
        if numba is None:
            raise RuntimeError("NumbaBackend constructed without numba")
        self._bound_fwd = {}
        self._bound_vjp = {}
        self._chain_cache = {}
        self._warmed_chains = set()

    # -- per-primitive kernel table ------------------------------------
    def fwd_kernel(self, prim):
        shim = _FWD_SHIMS.get(prim.name)
        if shim is None:
            return None
        bound = self._bound_fwd.get(prim.name)
        if bound is None:
            numpy_fwd = prim.fwd

            def bound(args, params, need_ctx, out,
                      _shim=shim, _numpy=numpy_fwd):
                result = _shim(args, params, need_ctx, out)
                if result is None:  # unhandled shape/dtype: numpy twin
                    return _numpy(args, params, need_ctx, out)
                return result

            self._bound_fwd[prim.name] = bound
        return bound

    def vjp_kernel(self, prim):
        shim = _VJP_SHIMS.get(prim.name)
        if shim is None:
            return None
        bound = self._bound_vjp.get(prim.name)
        if bound is None:
            numpy_vjp = prim.vjp

            def bound(ctx, grad, needs, params,
                      _shim=shim, _numpy=numpy_vjp):
                result = _shim(ctx, grad, needs, params)
                if result is None:
                    return _numpy(ctx, grad, needs, params)
                return result

            self._bound_vjp[prim.name] = bound
        return bound

    # -- whole-chain compilation ---------------------------------------
    def compile_chain(self, members, dtype):
        plans = plan_chain(members)
        if plans is None:
            return None
        key = chain_signature(plans, dtype)
        fn = self._chain_cache.get(key)
        if fn is None:
            source = render_source(plans)
            namespace = {"np": np}
            exec(compile(source, f"<chain {key[0]}>", "exec"), namespace)
            # Generated source has no file behind it -> in-process cache
            # (self._chain_cache) instead of numba's cache=True.
            fn = numba.njit(cache=False)(namespace[CHAIN_KERNEL_NAME])
            self._chain_cache[key] = fn
        kernel = ChainKernel(fn, plans, np.dtype(dtype), key)
        if key not in self._warmed_chains:
            fn(*kernel.warmup_args())  # jit-compile off the replay hot path
            self._warmed_chains.add(key)
        return kernel

    # -- eager-path row scatters ---------------------------------------
    def scatter_add_rows(self, out, indices, values):
        idx = np.asarray(indices)
        values = np.asarray(values)
        if (out.ndim >= 2 and out.dtype.kind == "f"
                and out.flags.c_contiguous and idx.ndim == 1
                and idx.dtype.kind in "iu"
                and values.shape == (idx.shape[0],) + out.shape[1:]):
            rows, cols = _rows_cols(out.shape)
            flat_values = np.ascontiguousarray(
                values, dtype=out.dtype).reshape(idx.shape[0], cols)
            _k_scatter_add2(flat_values,
                            np.ascontiguousarray(idx, dtype=np.int64),
                            out.reshape(rows, cols))
            return
        super().scatter_add_rows(out, indices, values)

    def scatter_max_rows(self, out, indices, values):
        idx = np.asarray(indices)
        values = np.asarray(values)
        if (out.ndim >= 2 and out.dtype.kind == "f"
                and out.flags.c_contiguous and idx.ndim == 1
                and idx.dtype.kind in "iu"
                and values.shape == (idx.shape[0],) + out.shape[1:]):
            rows, cols = _rows_cols(out.shape)
            flat_values = np.ascontiguousarray(
                values, dtype=out.dtype).reshape(idx.shape[0], cols)
            _k_scatter_max2(flat_values,
                            np.ascontiguousarray(idx, dtype=np.int64),
                            out.reshape(rows, cols))
            return
        np.maximum.at(out, indices, values)

    # -- warmup --------------------------------------------------------
    def warmup(self, dtypes=(np.float32, np.float64)):
        """Pre-compile the static kernel table for the given dtypes.

        Optional: first-call jit costs land at trace/build time anyway,
        but benches call this to keep compilation out of timed regions.
        """
        for dtype in dtypes:
            values = np.ones((2, 2), dtype=dtype)
            groups = np.zeros(2, dtype=np.int64)
            acc = np.zeros((1, 2), dtype=dtype)
            _k_scatter_add2(values, groups, acc)
            _k_scatter_max2(values, groups, acc)
            counts = np.zeros(1, dtype=dtype)
            _k_scatter_mean_fwd(values, groups, acc.copy(), counts)
            maxes = np.full((1, 2), -np.inf, dtype=dtype)
            _k_scatter_max2(values, groups, maxes)
            argmask = np.empty_like(values)
            _k_scatter_max_ctx(values, groups, maxes, argmask,
                               np.zeros((1, 2), dtype=dtype))
            _k_neginf_to_zero(maxes, acc.copy())
            _k_gather_rows(acc, groups, values.copy())
            _k_gather_div_rows(acc, groups, np.ones(1, dtype=dtype),
                               values.copy())
            _k_gather_mul_rows(acc, groups, values, values.copy())
            flat = np.zeros(2, dtype=dtype)
            _k_sigmoid(flat, flat.copy())
