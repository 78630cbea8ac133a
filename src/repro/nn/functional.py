"""Differentiable functional operations built on :mod:`repro.nn.autograd`.

Every op here is a registered :class:`~repro.nn.autograd.Primitive`: a
forward kernel plus a VJP rule in the registry, applied through
:func:`~repro.nn.autograd.apply_op` so the compiled trace/replay engine
(:mod:`repro.nn.compile`) sees one uniform op stream.  Numerically delicate
ops (softmax, log-sigmoid, logsumexp) use the standard stabilised forms.

Ragged batches — rows with differing numbers of slots, stored back to
back and addressed by their run ``starts`` — have their own three
primitives (``segment_softmax`` / ``segment_sum`` / ``segment_repeat``)
built on ``ufunc.reduceat``; they are what lets temporal attention skip
padded neighbour slots entirely instead of masking them.
"""

from __future__ import annotations

import numpy as np

from .autograd import (SparseRowGrad, Tensor, apply_op, as_tensor, defvjp,
                       primitive)
from .scatter import scatter_add_rows, scatter_max_rows

__all__ = [
    "exp", "log", "tanh", "sigmoid", "relu", "leaky_relu", "softmax",
    "log_softmax", "segment_rows", "segment_softmax", "segment_sum",
    "segment_repeat",
    "concatenate", "stack", "split_rows", "embedding_lookup",
    "clip", "sqrt", "abs_", "scatter_mean", "scatter_sum",
    "scatter_max", "l2_normalize",
    "pairwise_sq_dist", "euclidean_distance",
    "scatter_rows", "cos", "linear", "gru_cell", "time_encode",
]


# ----------------------------------------------------------------------
# unary elementwise
# ----------------------------------------------------------------------
def _exp_fwd(args, params, need_ctx, out):
    (x,) = args
    data = np.exp(x) if out is None else np.exp(x, out=out.get(x.shape))
    return data, (data,)


def _exp_vjp(ctx, grad, needs, params):
    return (grad * ctx[0],)


_EXP = defvjp(primitive("exp", _exp_fwd), _exp_vjp)


def exp(x: Tensor) -> Tensor:
    return apply_op(_EXP, (as_tensor(x),))


def _log_fwd(args, params, need_ctx, out):
    (x,) = args
    safe = np.maximum(x, params["eps"])
    data = np.log(safe) if out is None else np.log(safe, out=out.get(x.shape))
    return data, ((safe,) if need_ctx else None)


def _log_vjp(ctx, grad, needs, params):
    return (grad / ctx[0],)


_LOG = defvjp(primitive("log", _log_fwd), _log_vjp)


def log(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Natural log with a small floor to keep gradients finite."""
    return apply_op(_LOG, (as_tensor(x),), {"eps": eps})


def _sqrt_fwd(args, params, need_ctx, out):
    (x,) = args
    clipped = np.maximum(x, 0.0)
    if out is None:
        data = np.sqrt(clipped)
    else:
        data = np.sqrt(clipped, out=out.get(x.shape))
    return data, (data,)


def _sqrt_vjp(ctx, grad, needs, params):
    return (grad * 0.5 / np.maximum(ctx[0], params["eps"]),)


_SQRT = defvjp(primitive("sqrt", _sqrt_fwd), _sqrt_vjp)


def sqrt(x: Tensor, eps: float = 1e-12) -> Tensor:
    return apply_op(_SQRT, (as_tensor(x),), {"eps": eps})


def _abs_fwd(args, params, need_ctx, out):
    (x,) = args
    data = np.abs(x) if out is None else np.abs(x, out=out.get(x.shape))
    return data, ((np.sign(x),) if need_ctx else None)


def _abs_vjp(ctx, grad, needs, params):
    return (grad * ctx[0],)


_ABS = defvjp(primitive("abs", _abs_fwd), _abs_vjp)


def abs_(x: Tensor) -> Tensor:
    return apply_op(_ABS, (as_tensor(x),))


def _tanh_fwd(args, params, need_ctx, out):
    (x,) = args
    data = np.tanh(x) if out is None else np.tanh(x, out=out.get(x.shape))
    return data, (data,)


def _tanh_vjp(ctx, grad, needs, params):
    data = ctx[0]
    return (grad * (1.0 - data * data),)


_TANH = defvjp(primitive("tanh", _tanh_fwd), _tanh_vjp)


def tanh(x: Tensor) -> Tensor:
    return apply_op(_TANH, (as_tensor(x),))


def _sigmoid_into(x, out=None):
    """``0.5 * (1 + tanh(x / 2))`` written to ``out`` (which may be ``x``).

    One transcendental per element, nothing can overflow or underflow;
    exact at 0, exactly 0 / 1 in the far tails (error below one ulp of 1).
    """
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _sigmoid_fwd(args, params, need_ctx, out):
    (x,) = args
    data = _sigmoid_into(x, None if out is None else out.get(x.shape))
    return data, (data,)


def _sigmoid_vjp(ctx, grad, needs, params):
    data = ctx[0]
    return (grad * data * (1.0 - data),)


_SIGMOID = defvjp(primitive("sigmoid", _sigmoid_fwd), _sigmoid_vjp)


def sigmoid(x: Tensor) -> Tensor:
    return apply_op(_SIGMOID, (as_tensor(x),))


def _relu_fwd(args, params, need_ctx, out):
    (x,) = args
    mask = x > 0
    data = x * mask if out is None else np.multiply(x, mask, out=out.get(x.shape))
    return data, ((mask,) if need_ctx else None)


def _relu_vjp(ctx, grad, needs, params):
    return (grad * ctx[0],)


_RELU = defvjp(primitive("relu", _relu_fwd), _relu_vjp)


def relu(x: Tensor) -> Tensor:
    return apply_op(_RELU, (as_tensor(x),))


def _leaky_relu_fwd(args, params, need_ctx, out):
    (x,) = args
    factor = np.where(x > 0, 1.0, params["negative_slope"])
    if out is None:
        data = x * factor
    else:
        data = np.multiply(x, factor, out=out.get(x.shape))
    return data, ((factor,) if need_ctx else None)


def _leaky_relu_vjp(ctx, grad, needs, params):
    return (grad * ctx[0],)


_LEAKY_RELU = defvjp(primitive("leaky_relu", _leaky_relu_fwd),
                     _leaky_relu_vjp)


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    return apply_op(_LEAKY_RELU, (as_tensor(x),),
                    {"negative_slope": negative_slope})


def _cos_fwd(args, params, need_ctx, out):
    (x,) = args
    data = np.cos(x) if out is None else np.cos(x, out=out.get(x.shape))
    return data, ((np.sin(x),) if need_ctx else None)


def _cos_vjp(ctx, grad, needs, params):
    return (-grad * ctx[0],)


_COS = defvjp(primitive("cos", _cos_fwd), _cos_vjp)


def cos(x: Tensor) -> Tensor:
    """Elementwise cosine (the harmonic time-encoding kernel)."""
    return apply_op(_COS, (as_tensor(x),))


# ----------------------------------------------------------------------
# fused affine / recurrent / time-encoding kernels (one tape node each)
# ----------------------------------------------------------------------
def _linear_fwd(args, params, need_ctx, out):
    x, w = args[0], args[1]
    buf = None if out is None else out.get(x.shape[:-1] + w.shape[1:])
    data = np.matmul(x, w, out=buf)
    if len(args) == 3:
        data += args[2]
    return data, ((x, w) if need_ctx else None)


def _linear_vjp(ctx, grad, needs, params):
    x, w = ctx
    g2 = grad.reshape(-1, w.shape[1])
    gx = grad @ w.T if needs[0] else None
    gw = x.reshape(-1, w.shape[0]).T @ g2 if needs[1] else None
    if len(needs) == 2:
        return gx, gw
    return gx, gw, (g2.sum(axis=0) if needs[2] else None)


_LINEAR = defvjp(primitive("linear", _linear_fwd), _linear_vjp)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight + bias`` as one tape node.

    ``x`` is ``(..., in)``, ``weight`` ``(in, out)``, ``bias`` ``(out,)``
    or absent.  The bias is added in place on the matmul's output and its
    gradient is a column sum, so no broadcast add is ever recorded.
    """
    inputs = (as_tensor(x), weight) + (() if bias is None else (bias,))
    return apply_op(_LINEAR, inputs)


def _gru_cell_fwd(args, params, need_ctx, out):
    x, h, w_xz, w_hz, b_z, w_xr, w_hr, b_r, w_xn, w_hn, b_n = args
    # Gate-major packing: ``gates[k]`` is one contiguous (B, H) block.
    w_x = np.stack((w_xz, w_xr, w_xn))
    w_h = np.stack((w_hz, w_hr))
    gates = np.matmul(x, w_x)                   # z | r | n, input side
    gates += np.stack((b_z, b_r, b_n))[:, None]
    zr = gates[:2]
    zr += np.matmul(h, w_h)
    _sigmoid_into(zr, zr)
    z, r, n = gates
    hr = h * r
    n += hr @ w_hn
    np.tanh(n, out=n)                           # gates is now activated
    data = np.subtract(1.0, z, out=None if out is None else out.get(h.shape))
    data *= n
    data += z * h
    return data, ((x, h, w_x, w_h, w_hn, gates, hr) if need_ctx else None)


def _gru_cell_vjp(ctx, grad, needs, params):
    x, h, w_x, w_h, w_hn, gates, hr = ctx
    z, r, n = gates
    da = np.empty_like(gates)                   # pre-activation gradients
    da_z, da_r, da_n = da
    np.subtract(1.0, z, out=da_n)
    da_n *= grad
    da_n *= 1.0 - n * n
    d_hr = da_n @ w_hn.T
    np.subtract(h, n, out=da_z)
    da_z *= grad
    da_z *= z * (1.0 - z)
    np.multiply(d_hr, h, out=da_r)
    da_r *= r * (1.0 - r)
    gx = gh = None
    if needs[0]:
        gx = np.matmul(da, w_x.transpose(0, 2, 1)).sum(axis=0)
    if needs[1]:
        gh = np.matmul(da[:2], w_h.transpose(0, 2, 1)).sum(axis=0)
        gh += grad * z
        gh += d_hr * r
    g_wx, g_wh, g_b = np.matmul(x.T, da), np.matmul(h.T, da[:2]), da.sum(axis=1)
    grads = (gx, gh, g_wx[0], g_wh[0], g_b[0], g_wx[1], g_wh[1], g_b[1],
             g_wx[2], hr.T @ da_n, g_b[2])
    return tuple(gi if need else None for gi, need in zip(grads, needs))


_GRU_CELL = defvjp(primitive("gru_cell", _gru_cell_fwd), _gru_cell_vjp)


def gru_cell(x: Tensor, h: Tensor, w_xz: Tensor, w_hz: Tensor, b_z: Tensor,
             w_xr: Tensor, w_hr: Tensor, b_r: Tensor, w_xn: Tensor,
             w_hn: Tensor, b_n: Tensor) -> Tensor:
    """One GRU step (Cho et al., 2014) as one tape node.

    ``z = σ(x W_xz + h W_hz + b_z)``, ``r = σ(x W_xr + h W_hr + b_r)``,
    ``n = tanh(x W_xn + (h ⊙ r) W_hn + b_n)``, ``h' = z ⊙ h + (1 − z) ⊙ n``
    for ``x`` ``(B, in)`` and ``h`` ``(B, hidden)``.  The input side
    of all three gates is one matmul against the stacked
    ``[W_xz | W_xr | W_xn]`` and the state side of ``z``/``r`` one against
    ``[W_hz | W_hr]``; the backward keeps the activated gates and
    ``h ⊙ r`` only and skips the gradient of a constant ``x`` or ``h``.
    """
    x, h = as_tensor(x), as_tensor(h)
    if x.ndim != 2 or h.ndim != 2:
        raise ValueError(f"gru_cell takes (batch, features) inputs, got "
                         f"{x.shape} and {h.shape}")
    return apply_op(_GRU_CELL, (x, h, w_xz, w_hz, b_z, w_xr, w_hr, b_r,
                                w_xn, w_hn, b_n))


def _time_encode_fwd(args, params, need_ctx, out):
    deltas, omega, phase = args
    buf = None if out is None else out.get(deltas.shape + omega.shape)
    data = np.multiply(deltas[..., None], omega, out=buf)
    data += phase
    ctx = (deltas, omega, np.sin(data)) if need_ctx else None
    return np.cos(data, out=data), ctx


def _time_encode_vjp(ctx, grad, needs, params):
    deltas, omega, sin = ctx
    minus_g = (grad * sin).reshape(-1, omega.shape[0])   # -dL/d(angle)
    return (-(minus_g @ omega).reshape(deltas.shape) if needs[0] else None,
            -(deltas.reshape(-1) @ minus_g) if needs[1] else None,
            -minus_g.sum(axis=0) if needs[2] else None)


_TIME_ENCODE = defvjp(primitive("time_encode", _time_encode_fwd),
                      _time_encode_vjp)


def time_encode(deltas, omega: Tensor, phase: Tensor) -> Tensor:
    """Harmonic time encoding ``cos(Δt · ω + φ)`` as one tape node.

    ``deltas`` is ``(...,)``, ``omega`` and ``phase`` are ``(dim,)``; the
    result is ``(..., dim)``.  The gradients of ``ω`` and ``φ`` are a
    dot product and a column sum over the flattened deltas.
    """
    return apply_op(_TIME_ENCODE, (as_tensor(deltas), omega, phase))


# ----------------------------------------------------------------------
# softmax family
# ----------------------------------------------------------------------
def _softmax_fwd(args, params, need_ctx, out):
    (x,) = args
    axis = params["axis"]
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=axis, keepdims=True)
    data = e / s if out is None else np.divide(e, s, out=out.get(x.shape))
    return data, (data,)


def _softmax_vjp(ctx, grad, needs, params):
    data = ctx[0]
    dot = (grad * data).sum(axis=params["axis"], keepdims=True)
    return (data * (grad - dot),)


_SOFTMAX = defvjp(primitive("softmax", _softmax_fwd), _softmax_vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return apply_op(_SOFTMAX, (as_tensor(x),), {"axis": axis})


def _log_softmax_fwd(args, params, need_ctx, out):
    (x,) = args
    axis = params["axis"]
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    if out is None:
        data = shifted - lse
    else:
        data = np.subtract(shifted, lse, out=out.get(x.shape))
    return data, ((np.exp(data),) if need_ctx else None)


def _log_softmax_vjp(ctx, grad, needs, params):
    soft = ctx[0]
    return (grad - soft * grad.sum(axis=params["axis"], keepdims=True),)


_LOG_SOFTMAX = defvjp(primitive("log_softmax", _log_softmax_fwd),
                      _log_softmax_vjp)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return apply_op(_LOG_SOFTMAX, (as_tensor(x),), {"axis": axis})


# ----------------------------------------------------------------------
# sorted segments (ragged rows)
# ----------------------------------------------------------------------
# A ragged batch stores the slots of all its rows back to back: row ``i``
# owns the flat run ``[starts[i], starts[i + 1])`` and the last run ends at
# the slot total.  ``starts`` begins at 0 and is strictly increasing —
# every run is non-empty, which is what lets ``ufunc.reduceat`` do the
# reductions (it would silently read an empty run as its next element, so
# :func:`segment_rows` rejects one).  The three primitives share the
# per-slot row index; a caller applying several of them to one layout
# computes it once and passes it as ``rows``.
def segment_rows(starts: np.ndarray, total: int) -> np.ndarray:
    """Row index of every slot, ``[0, 0, 1, 2, 2, 2, ...]``, checked.

    Raises ``ValueError`` unless ``starts`` begins at 0, is strictly
    increasing and ends below ``total`` (no empty run).
    """
    starts = np.asarray(starts)
    counts = np.diff(starts, append=total)
    first = starts[0] if len(starts) else total
    if first != 0 or (counts <= 0).any():
        raise ValueError(
            f"segment starts must begin at 0 and increase strictly below "
            f"the slot total {total} (every run non-empty), got {starts}")
    return np.repeat(np.arange(len(starts)), counts)


def _segment_params(starts, total: int, rows) -> dict:
    if rows is None:
        rows = segment_rows(starts, total)
    return {"starts": np.asarray(starts, dtype=np.int64), "rows": rows}


def _segment_softmax_fwd(args, params, need_ctx, out):
    (x,) = args
    starts, rows = params["starts"], params["rows"]
    e = np.exp(x - np.maximum.reduceat(x, starts, axis=0)[rows])
    s = np.add.reduceat(e, starts, axis=0)[rows]
    data = e / s if out is None else np.divide(e, s, out=out.get(x.shape))
    return data, (data,)


def _segment_softmax_vjp(ctx, grad, needs, params):
    (data,) = ctx
    dot = np.add.reduceat(grad * data, params["starts"],
                          axis=0)[params["rows"]]
    return (data * (grad - dot),)


_SEGMENT_SOFTMAX = defvjp(primitive("segment_softmax", _segment_softmax_fwd),
                          _segment_softmax_vjp)


def segment_softmax(x: Tensor, starts: np.ndarray, rows=None) -> Tensor:
    """Softmax over axis 0 within each run of a ragged ``(S, ...)`` batch.

    The ragged twin of a masked softmax over padded ``(B, N)`` scores:
    only real slots exist, so there is no ``-inf`` bias and no wasted
    exponentials.  Trailing axes (attention heads) are independent.
    ``rows`` is ``segment_rows(starts, S)`` when already at hand.
    """
    x = as_tensor(x)
    return apply_op(_SEGMENT_SOFTMAX, (x,),
                    _segment_params(starts, x.shape[0], rows))


def _segment_sum_fwd(args, params, need_ctx, out):
    (x,) = args
    starts = params["starts"]
    if out is None:
        data = np.add.reduceat(x, starts, axis=0)
    else:
        data = np.add.reduceat(x, starts, axis=0,
                               out=out.get((len(starts),) + x.shape[1:]))
    return data, None


def _segment_sum_vjp(ctx, grad, needs, params):
    return (grad[params["rows"]],)


_SEGMENT_SUM = defvjp(primitive("segment_sum", _segment_sum_fwd),
                      _segment_sum_vjp)


def segment_sum(x: Tensor, starts: np.ndarray, rows=None) -> Tensor:
    """Sum each run of a ragged ``(S, ...)`` batch into a ``(B, ...)`` row."""
    x = as_tensor(x)
    return apply_op(_SEGMENT_SUM, (x,),
                    _segment_params(starts, x.shape[0], rows))


def _segment_repeat_fwd(args, params, need_ctx, out):
    (x,) = args
    rows = params["rows"]
    if out is None:
        data = x[rows]
    else:
        # mode="clip": rows are in range by construction, and the default
        # mode="raise" buffers ``out`` through a temporary copy.
        data = np.take(x, rows, axis=0, mode="clip",
                       out=out.get(rows.shape + x.shape[1:]))
    return data, None


def _segment_repeat_vjp(ctx, grad, needs, params):
    return (np.add.reduceat(grad, params["starts"], axis=0),)


_SEGMENT_REPEAT = defvjp(primitive("segment_repeat", _segment_repeat_fwd),
                         _segment_repeat_vjp)


def segment_repeat(x: Tensor, starts: np.ndarray, total: int,
                   rows=None) -> Tensor:
    """Repeat row ``i`` of ``(B, ...)`` once per slot of run ``i``.

    The inverse layout move of :func:`segment_sum` (each is the other's
    VJP): broadcasts one per-row vector — an attention query — to the
    ``total`` slots of the ragged batch.
    """
    return apply_op(_SEGMENT_REPEAT, (as_tensor(x),),
                    _segment_params(starts, total, rows))


# ----------------------------------------------------------------------
# shape combinators
# ----------------------------------------------------------------------
def _concat_fwd(args, params, need_ctx, out):
    axis = params["axis"]
    if out is None:
        data = np.concatenate(args, axis=axis)
    else:
        shape = list(args[0].shape)
        ax = axis % len(shape)
        shape[ax] = sum(a.shape[ax] for a in args)
        data = np.concatenate(args, axis=axis, out=out.get(tuple(shape)))
    ctx = None
    if need_ctx:
        sizes = [a.shape[axis] for a in args]
        ctx = (np.cumsum(sizes)[:-1],)
    return data, ctx


def _concat_vjp(ctx, grad, needs, params):
    pieces = np.split(grad, ctx[0], axis=params["axis"])
    return tuple(g if need else None for g, need in zip(pieces, needs))


_CONCAT = defvjp(primitive("concatenate", _concat_fwd), _concat_vjp)


def concatenate(tensors, axis: int = -1) -> Tensor:
    return apply_op(_CONCAT, tuple(as_tensor(t) for t in tensors),
                    {"axis": axis})


def _stack_fwd(args, params, need_ctx, out):
    axis = params["axis"]
    if out is None:
        data = np.stack(args, axis=axis)
    else:
        shape = list(args[0].shape)
        shape.insert(axis % (len(shape) + 1), len(args))
        data = np.stack(args, axis=axis, out=out.get(tuple(shape)))
    return data, None


def _stack_vjp(ctx, grad, needs, params):
    axis = params["axis"]
    pieces = np.split(grad, len(needs), axis=axis)
    return tuple(np.squeeze(g, axis=axis) if need else None
                 for g, need in zip(pieces, needs))


_STACK = defvjp(primitive("stack", _stack_fwd), _stack_vjp)


def stack(tensors, axis: int = 0) -> Tensor:
    return apply_op(_STACK, tuple(as_tensor(t) for t in tensors),
                    {"axis": axis})


def _row_block_fwd(args, params, need_ctx, out):
    (x,) = args
    return x[params["lo"]:params["hi"]], ((x.shape,) if need_ctx else None)


def _row_block_vjp(ctx, grad, needs, params):
    full = np.zeros(ctx[0], dtype=grad.dtype)
    full[params["lo"]:params["hi"]] = grad
    return (full,)


_ROW_BLOCK = defvjp(primitive("row_block", _row_block_fwd), _row_block_vjp)


def split_rows(x: Tensor, sizes) -> list[Tensor]:
    """Cut ``x`` into consecutive row blocks of the given ``sizes`` (views).

    The inverse of ``concatenate(blocks, axis=0)``: lets several node sets
    share one encoder pass and part ways afterwards.  Each block's VJP
    writes its rows into a zero array of ``x``'s shape, so the blocks'
    gradients add up to their concatenation (an unused block counts as
    zeros).
    """
    x = as_tensor(x)
    ends = np.cumsum(sizes)
    if len(ends) == 0 or ends[-1] != x.shape[0]:
        raise ValueError(f"split sizes {list(sizes)} do not add up to "
                         f"{x.shape[0]} rows")
    return [apply_op(_ROW_BLOCK, (x,), {"lo": int(hi - size), "hi": int(hi)})
            for size, hi in zip(sizes, ends)]


# ----------------------------------------------------------------------
# gathers / scatters
# ----------------------------------------------------------------------
def _embedding_fwd(args, params, need_ctx, out):
    (table,) = args
    indices = params["indices"]
    if out is None:
        data = table[indices]
    else:
        data = np.take(table, indices, axis=0,
                       out=out.get(indices.shape + table.shape[1:]))
    return data, ((table.shape,) if need_ctx else None)


def _embedding_vjp(ctx, grad, needs, params):
    return (SparseRowGrad(ctx[0], params["indices"], grad),)


_EMBEDDING = defvjp(primitive("embedding_lookup", _embedding_fwd),
                    _embedding_vjp)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather with a *row-sparse* backward — the core of Embedding layers.

    The backward accumulates ``(indices, grad_rows)`` as a
    :class:`~repro.nn.autograd.SparseRowGrad` instead of allocating a
    dense zeros table per lookup, so a batch that gathers a handful of
    rows from a large table never materialises the full table shape until
    ``table.grad`` is actually read.
    """
    indices = np.asarray(indices, dtype=np.int64)
    return apply_op(_EMBEDDING, (as_tensor(table),), {"indices": indices})


def _clip_fwd(args, params, need_ctx, out):
    (x,) = args
    low, high = params["low"], params["high"]
    if out is None:
        data = np.clip(x, low, high)
    else:
        data = np.clip(x, low, high, out=out.get(x.shape))
    return data, (((x >= low) & (x <= high),) if need_ctx else None)


def _clip_vjp(ctx, grad, needs, params):
    return (grad * ctx[0],)


_CLIP = defvjp(primitive("clip", _clip_fwd), _clip_vjp)


def clip(x: Tensor, low: float, high: float) -> Tensor:
    return apply_op(_CLIP, (as_tensor(x),), {"low": low, "high": high})


def _add_rows_by_group(sums, groups, values, counts=None) -> None:
    """``sums[groups] += values`` into a zeroed ``sums``.

    Sorted ``groups`` (what ``SubgraphBatch.groups()`` yields by
    construction) are contiguous runs, so one ``np.add.reduceat`` over the
    non-empty groups replaces the element-at-a-time ``np.add.at``;
    anything else takes the general scatter.
    """
    if len(groups) and (groups[1:] >= groups[:-1]).all():
        if counts is None:
            counts = np.bincount(groups, minlength=len(sums))
        filled = counts > 0
        starts = (np.cumsum(counts) - counts)[filled]
        sums[filled] = np.add.reduceat(values, starts, axis=0)
    else:
        scatter_add_rows(sums, groups, values)


def _scatter_mean_fwd(args, params, need_ctx, out):
    (values,) = args
    groups, num_groups = params["groups"], params["num_groups"]
    counts = np.bincount(groups, minlength=num_groups)
    safe_counts = np.maximum(counts, 1).astype(values.dtype)
    sums = np.zeros((num_groups, values.shape[-1]), dtype=values.dtype)
    _add_rows_by_group(sums, groups, values, counts)
    if out is None:
        data = sums / safe_counts[:, None]
    else:
        data = np.divide(sums, safe_counts[:, None], out=out.get(sums.shape))
    return data, ((safe_counts,) if need_ctx else None)


def _scatter_mean_vjp(ctx, grad, needs, params):
    groups = params["groups"]
    (safe_counts,) = ctx
    return (grad[groups] / safe_counts[groups][:, None],)


_SCATTER_MEAN = defvjp(primitive("scatter_mean", _scatter_mean_fwd),
                       _scatter_mean_vjp)


def scatter_mean(values: Tensor, groups: np.ndarray, num_groups: int) -> Tensor:
    """Mean-pool row vectors into ``num_groups`` buckets.

    Empty buckets yield zero rows.  This is the readout primitive used for
    subgraph embeddings (paper Eq. 9/10/12/13 with mean pooling).
    """
    groups = np.asarray(groups, dtype=np.int64)
    return apply_op(_SCATTER_MEAN, (as_tensor(values),),
                    {"groups": groups, "num_groups": num_groups})


def _scatter_sum_fwd(args, params, need_ctx, out):
    (values,) = args
    groups, num_groups = params["groups"], params["num_groups"]
    shape = (num_groups, values.shape[-1])
    if out is None:
        data = np.zeros(shape, dtype=values.dtype)
    else:
        data = out.get(shape)
        data.fill(0.0)
    _add_rows_by_group(data, groups, values)
    return data, None


def _scatter_sum_vjp(ctx, grad, needs, params):
    return (grad[params["groups"]],)


_SCATTER_SUM = defvjp(primitive("scatter_sum", _scatter_sum_fwd),
                      _scatter_sum_vjp)


def scatter_sum(values: Tensor, groups: np.ndarray, num_groups: int) -> Tensor:
    """Sum-pool row vectors into ``num_groups`` buckets; empty buckets are zero.

    The sum-pooling arm of the subgraph readout (paper Eq. 9 alternatives).
    """
    groups = np.asarray(groups, dtype=np.int64)
    return apply_op(_SCATTER_SUM, (as_tensor(values),),
                    {"groups": groups, "num_groups": num_groups})


def _scatter_max_fwd(args, params, need_ctx, out):
    (values,) = args
    groups, num_groups = params["groups"], params["num_groups"]
    maxes = np.full((num_groups, values.shape[-1]), -np.inf,
                    dtype=values.dtype)
    scatter_max_rows(maxes, groups, values)
    data = np.where(np.isneginf(maxes), 0.0, maxes)
    ctx = None
    if need_ctx:
        argmask = (values == maxes[groups]).astype(values.dtype)
        ties = np.zeros((num_groups, values.shape[-1]), dtype=values.dtype)
        scatter_add_rows(ties, groups, argmask)
        argmask /= np.maximum(ties, 1.0)[groups]
        ctx = (argmask,)
    return data, ctx


def _scatter_max_vjp(ctx, grad, needs, params):
    return (grad[params["groups"]] * ctx[0],)


_SCATTER_MAX = defvjp(primitive("scatter_max", _scatter_max_fwd),
                      _scatter_max_vjp)


def scatter_max(values: Tensor, groups: np.ndarray, num_groups: int) -> Tensor:
    """Max-pool row vectors into ``num_groups`` buckets; empty buckets are zero.

    Gradient splits equally among tied maxima within a bucket, matching
    ``Tensor.max`` so the scatter readout is a drop-in for row-by-row
    pooling.
    """
    groups = np.asarray(groups, dtype=np.int64)
    return apply_op(_SCATTER_MAX, (as_tensor(values),),
                    {"groups": groups, "num_groups": num_groups})


def _scatter_rows_fwd(args, params, need_ctx, out):
    base, rows = args
    indices = params["indices"]
    if out is None:
        data = base.copy()
    else:
        data = out.get(base.shape)
        np.copyto(data, base)
    data[indices] = rows
    return data, None


def _scatter_rows_vjp(ctx, grad, needs, params):
    indices = params["indices"]
    g_base = g_rows = None
    if needs[0]:
        g_base = grad.copy()
        g_base[indices] = 0.0
    if needs[1]:
        g_rows = grad[indices]
    return g_base, g_rows


_SCATTER_ROWS = defvjp(primitive("scatter_rows", _scatter_rows_fwd),
                       _scatter_rows_vjp)


def scatter_rows(base: Tensor, indices: np.ndarray, rows: Tensor) -> Tensor:
    """Return a copy of ``base`` with ``base[indices] = rows`` (differentiable).

    Gradient w.r.t. ``base`` flows through untouched rows only; gradient
    w.r.t. ``rows`` through the replaced rows.  ``indices`` must be unique.
    This is the in-graph memory write used by the DGNN memory updater.
    """
    indices = np.asarray(indices, dtype=np.int64)
    # Strictly increasing input (the memory's hit positions) is unique
    # by construction; only other input pays for the hash.
    if not (indices[1:] > indices[:-1]).all() \
            and len(np.unique(indices)) != len(indices):
        raise ValueError("scatter_rows requires unique indices")
    return apply_op(_SCATTER_ROWS, (as_tensor(base), as_tensor(rows)),
                    {"indices": indices})


# ----------------------------------------------------------------------
# compositions
# ----------------------------------------------------------------------
def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    norm_sq = (x * x).sum(axis=axis, keepdims=True)
    return x * (norm_sq + eps) ** -0.5


def pairwise_sq_dist(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise squared Euclidean distance between matching rows of a and b."""
    diff = a - b
    return (diff * diff).sum(axis=-1)


def euclidean_distance(a: Tensor, b: Tensor, eps: float = 1e-12) -> Tensor:
    """Row-wise Euclidean distance — the metric d(.) of paper Eq. 11/14."""
    return sqrt(pairwise_sq_dist(a, b) + eps)
