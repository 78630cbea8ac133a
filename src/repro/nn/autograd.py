"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the neural substrate that replaces PyTorch
in this reproduction.  It implements a :class:`Tensor` wrapping a
``numpy.ndarray`` together with a dynamically built computation graph and a
topological-order backward pass.

Design notes
------------
* Every differentiable operation is a registered :class:`Primitive` with a
  forward kernel and a VJP (vector-Jacobian product) rule, HIPS-autograd
  style: applying a primitive records one ``(op, inputs, output, ctx)``
  :class:`Node` instead of a per-op backward closure.  The registry is what
  makes the op stream *compilable* — :mod:`repro.nn.compile` traces the
  node tape once and replays it without rebuilding the graph.
* Broadcasting is fully supported: binary VJPs *unbroadcast* gradients
  (sum over broadcast axes) on the way back.
* Gradients accumulate, mirroring PyTorch semantics: calling
  :meth:`Tensor.backward` adds into ``.grad``; optimizers are expected to
  call :func:`zero_grad` between steps.
* The graph is retained only through node input references, so dropping
  the output tensor frees the whole graph.
* A primitive's :class:`Node` is the only graph node kind: a custom op is
  a :class:`Primitive` applied through :func:`apply_op`, so every graph
  the eager engine can differentiate is one the compiler can trace.
"""

from __future__ import annotations

import threading

import numpy as np

from .scatter import scatter_add_rows, sum_duplicate_rows

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled",
           "SparseRowGrad", "default_dtype", "get_default_dtype",
           "set_default_dtype", "Primitive", "Node", "primitive", "defvjp",
           "apply_op", "graph_nodes_created"]


class _EngineState(threading.local):
    """Per-thread engine state (class attributes = every thread's defaults).

    ``no_grad``, ``default_dtype`` and the trace/replay engine scope a
    thread's *own* ops: a service and a trainer on two threads of one
    process must neither see nor restore each other's.
    """

    grad_enabled = True
    default_dtype = np.dtype(np.float64)
    # The active trace/replay engine (see repro.nn.compile); None = eager.
    tracer = None


_STATE = _EngineState()

# Monotone count of graph nodes recorded since process start.  The serving
# path asserts this stays flat during inference (no tape allocation).
_NODES_CREATED = 0


def graph_nodes_created() -> int:
    """Total autograd nodes recorded so far (monotone counter).

    Take a reading before and after a code region to assert it performed
    no graph construction (inference paths must leave this flat).
    """
    return _NODES_CREATED


def set_tracer(tracer):
    """Install a trace/replay engine intercepting primitive application.

    Returns the previously installed tracer (None when eager).  Used only
    by :mod:`repro.nn.compile`.
    """
    previous = _STATE.tracer
    _STATE.tracer = tracer
    return previous


def get_tracer():
    return _STATE.tracer


def get_default_dtype() -> np.dtype:
    """Dtype new tensors are created with (float64 unless overridden)."""
    return _STATE.default_dtype


def set_default_dtype(dtype) -> np.dtype:
    """Set the calling thread's tensor dtype; returns the previous one.

    Only floating dtypes are meaningful — training in float32 halves the
    memory traffic of the DGNN hot path while float64 remains the default
    for numerically strict gradient checks.
    """
    previous = _STATE.default_dtype
    resolved = np.dtype(dtype)
    if resolved.kind != "f":
        raise ValueError(f"default dtype must be floating, got {resolved}")
    _STATE.default_dtype = resolved
    return previous


class default_dtype:
    """Context manager scoping :func:`set_default_dtype`."""

    def __init__(self, dtype):
        self._dtype = dtype
        self._previous: np.dtype | None = None

    def __enter__(self):
        self._previous = set_default_dtype(self._dtype)
        return self

    def __exit__(self, exc_type, exc, tb):
        set_default_dtype(self._previous)
        return False


class SparseRowGrad:
    """A row-sparse gradient for an axis-0-indexed table.

    Represents ``sum_k onehot(indices[k]) ⊗ values[k]`` without
    materialising the full table, so a batch of embedding lookups against
    a large table accumulates ``(indices, grad_rows)`` pairs instead of
    allocating one dense zeros table per lookup.  Densified lazily the
    first time :attr:`Tensor.grad` is read.
    Rows are held flat (``indices`` 1-D, ``values`` one row each); later
    contributions (:meth:`append`) stay separate chunks, joined once when
    :attr:`indices` / :attr:`values` are read.
    """

    __slots__ = ("shape", "_chunks")

    def __init__(self, shape: tuple, indices: np.ndarray, values: np.ndarray):
        self.shape = tuple(shape)
        self._chunks = [(np.reshape(indices, -1),
                         np.reshape(values, (-1,) + self.shape[1:]))]

    def _joined(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self._chunks) > 1:
            self._chunks = [tuple(map(np.concatenate, zip(*self._chunks)))]
        return self._chunks[0]

    @property
    def indices(self) -> np.ndarray:
        return self._joined()[0]

    @property
    def values(self) -> np.ndarray:
        return self._joined()[1]

    @property
    def dtype(self) -> np.dtype:
        return self._chunks[0][1].dtype

    def append(self, other: "SparseRowGrad") -> None:
        """Add ``other`` in.  Its rows are copied (in this gradient's
        dtype): they may sit in a buffer that is reused before the read."""
        self._chunks.extend((idx, np.array(vals, dtype=self.dtype))
                            for idx, vals in other._chunks)

    def coalesce(self) -> "SparseRowGrad":
        """Merge duplicate row indices by summation."""
        return SparseRowGrad(
            self.shape, *sum_duplicate_rows(self.indices, self.values))

    def to_dense(self) -> np.ndarray:
        full = np.zeros(self.shape, dtype=self.dtype)
        scatter_add_rows(full, self.indices, self.values)
        return full


class no_grad:
    """Context manager that disables graph construction.

    Mirrors ``torch.no_grad()``; used by evaluation loops and by the DGNN
    memory module when persisting detached states.
    """

    def __enter__(self):
        self._previous = _STATE.grad_enabled
        _STATE.grad_enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.grad_enabled = self._previous
        return False


def is_grad_enabled() -> bool:
    """Return whether new operations are currently recorded on the graph."""
    return _STATE.grad_enabled


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over the axes that were broadcast to reach ``grad.shape``.

    ``shape`` is the original operand shape.  This inverts numpy
    broadcasting for the backward pass of elementwise binary ops.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ----------------------------------------------------------------------
# primitive registry
# ----------------------------------------------------------------------
class Primitive:
    """One differentiable operation: a forward kernel plus its VJP rule.

    ``fwd(args, params, need_ctx, out)`` maps raw input arrays to
    ``(data, ctx)`` where ``ctx`` holds whatever the VJP needs (only
    when ``need_ctx``).  ``out`` is an optional buffer pool handle used
    by the compiled replay path (``out.get(shape)`` returns a reusable
    array of the recorded output dtype); kernels may ignore it.

    ``vjp(ctx, grad, needs, params)`` returns one gradient (array,
    :class:`SparseRowGrad` or None) per input, in input order.
    """

    __slots__ = ("name", "fwd", "vjp")

    def __init__(self, name: str, fwd):
        self.name = name
        self.fwd = fwd
        self.vjp = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Primitive({self.name!r})"


PRIMITIVES: dict[str, Primitive] = {}


def primitive(name: str, fwd) -> Primitive:
    """Register a new differentiable primitive under ``name``."""
    prim = Primitive(name, fwd)
    PRIMITIVES[name] = prim
    return prim


def defvjp(prim: Primitive, vjp) -> Primitive:
    """Attach the VJP rule to ``prim`` (one gradient per input)."""
    prim.vjp = vjp
    return prim


class Node:
    """One recorded application of a primitive (a tape entry)."""

    __slots__ = ("prim", "inputs", "ctx", "params")

    def __init__(self, prim: Primitive, inputs: tuple, ctx, params):
        self.prim = prim
        self.inputs = inputs
        self.ctx = ctx
        self.params = params


def _wrap(data) -> "Tensor":
    """Wrap a kernel output without re-running ``Tensor.__init__`` checks."""
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=_STATE.default_dtype)
    out._grad = None
    out.requires_grad = False
    out._node = None
    out._slot = None
    out.name = None
    return out


def _eager_apply(prim: Primitive, inputs: tuple, params) -> "Tensor":
    """Apply ``prim`` eagerly, recording a :class:`Node` when needed."""
    global _NODES_CREATED
    requires = False
    if _STATE.grad_enabled:
        for t in inputs:
            if t.requires_grad:
                requires = True
                break
    data, ctx = prim.fwd(tuple(t.data for t in inputs), params, requires, None)
    out = _wrap(data)
    if requires:
        _NODES_CREATED += 1
        out.requires_grad = True
        out._node = Node(prim, inputs, ctx, params)
    return out


def apply_op(prim: Primitive, inputs: tuple, params=None) -> "Tensor":
    """Apply a registered primitive to tensor ``inputs``.

    Dispatches to the active trace/replay engine when one is installed;
    otherwise runs the plain eager path (fast no-graph route under
    :class:`no_grad`).
    """
    tr = _STATE.tracer
    if tr is not None:
        return tr.apply(prim, inputs, params)
    return _eager_apply(prim, inputs, params)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` by default for
        numerically robust gradient checks.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad`.
    """

    __slots__ = ("data", "_grad", "requires_grad", "_node", "_slot", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_STATE.default_dtype)
        self._grad: np.ndarray | SparseRowGrad | None = None
        self.requires_grad = bool(requires_grad) and _STATE.grad_enabled
        self._node: Node | None = None
        self._slot = None
        self.name = name

    @property
    def grad(self) -> np.ndarray | None:
        """Accumulated gradient, densified on first read.

        Internally gradients may be held as :class:`SparseRowGrad` (row
        lookups against large tables); reading this property materialises
        and caches the dense array, so all external consumers keep seeing
        plain numpy.  Use :attr:`raw_grad` to inspect without densifying.
        """
        if isinstance(self._grad, SparseRowGrad):
            self._grad = self._grad.to_dense()
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad = value

    @property
    def raw_grad(self) -> np.ndarray | SparseRowGrad | None:
        return self._grad

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a tensor with exactly one element, got "
                f"shape {self.shape} ({self.data.size} elements)")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self._grad = None

    # ------------------------------------------------------------------
    # graph plumbing
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray | SparseRowGrad) -> None:
        """Add ``grad`` into the stored gradient.

        The stored array is always owned by this tensor (copied on first
        store), so later contributions may add in place.  Sparse row grads
        stay sparse until read through :attr:`grad` or a dense
        contribution forces densification.
        """
        current = self._grad
        if isinstance(grad, SparseRowGrad):
            if current is None:
                self._grad = SparseRowGrad(
                    grad.shape, grad.indices,
                    np.array(grad.values, dtype=self.data.dtype, copy=True))
            elif isinstance(current, SparseRowGrad):
                current.append(grad)
            else:
                scatter_add_rows(current, grad.indices, grad.values)
        else:
            if current is None:
                self._grad = np.array(grad, dtype=self.data.dtype, copy=True)
            elif isinstance(current, SparseRowGrad):
                dense = current.to_dense()
                dense += grad
                self._grad = dense
            else:
                current += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ``1.0`` and requires a scalar tensor,
            matching PyTorch's convention.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        tr = _STATE.tracer
        if tr is not None and tr.replaying:
            tr.replay_backward(self, grad)
            return
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order over the reachable graph.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            tape = node._node
            if tape is None:
                continue
            for parent in tape.inputs:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        tracing = tr is not None
        if tracing:
            tr.begin_backward(self, grad)
        self._accumulate(grad)
        for node in reversed(topo):
            tape = node._node
            if tape is not None and node.grad is not None:
                if tracing:
                    tr.note_step(node)
                needs = tuple(p.requires_grad for p in tape.inputs)
                grads = tape.prim.vjp(tape.ctx, node.grad, needs, tape.params)
                for parent, g in zip(tape.inputs, grads):
                    if g is not None:
                        parent._accumulate(g)
            # Free the graph entry so intermediate buffers can be collected.
            if node is not self:
                node._node = None

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        return apply_op(_ADD, (self, as_tensor(other)))

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        return apply_op(_MUL, (self, as_tensor(other)))

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return apply_op(_NEG, (self,))

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        return self * as_tensor(other) ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        return apply_op(_POW, (self,), {"exponent": exponent})

    # ------------------------------------------------------------------
    # matmul and reshaping
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        return apply_op(_MATMUL, (self, as_tensor(other)))

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply_op(_RESHAPE, (self,), {"shape": shape})

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))
        return apply_op(_TRANSPOSE, (self,), {"axes": axes, "inverse": inverse})

    def __getitem__(self, index) -> "Tensor":
        return apply_op(_GETITEM, (self,), {"index": index})

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op(_SUM, (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[ax] for ax in a_norm(axes, self.ndim)]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / max(count, 1))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op(_MAX, (self,), {"axis": axis, "keepdims": keepdims})

    # ------------------------------------------------------------------
    # comparisons (no grad; returned as plain arrays for control flow)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)


def a_norm(axes, ndim: int) -> tuple:
    """Normalise possibly-negative reduction axes."""
    return tuple(ax % ndim for ax in axes)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


# ----------------------------------------------------------------------
# core primitives (tensor methods)
# ----------------------------------------------------------------------
def _add_fwd(args, params, need_ctx, out):
    a, b = args
    if out is None:
        data = a + b
    else:
        data = np.add(a, b, out=out.get(np.broadcast_shapes(a.shape, b.shape)))
    return data, ((a.shape, b.shape) if need_ctx else None)


def _add_vjp(ctx, grad, needs, params):
    a_shape, b_shape = ctx
    return (_unbroadcast(grad, a_shape) if needs[0] else None,
            _unbroadcast(grad, b_shape) if needs[1] else None)


_ADD = defvjp(primitive("add", _add_fwd), _add_vjp)


def _mul_fwd(args, params, need_ctx, out):
    a, b = args
    if out is None:
        data = a * b
    else:
        data = np.multiply(a, b,
                           out=out.get(np.broadcast_shapes(a.shape, b.shape)))
    return data, ((a, b) if need_ctx else None)


def _mul_vjp(ctx, grad, needs, params):
    a, b = ctx
    return (_unbroadcast(grad * b, a.shape) if needs[0] else None,
            _unbroadcast(grad * a, b.shape) if needs[1] else None)


_MUL = defvjp(primitive("mul", _mul_fwd), _mul_vjp)


def _neg_fwd(args, params, need_ctx, out):
    (a,) = args
    data = -a if out is None else np.negative(a, out=out.get(a.shape))
    return data, None


def _neg_vjp(ctx, grad, needs, params):
    return (-grad,)


_NEG = defvjp(primitive("neg", _neg_fwd), _neg_vjp)


def _pow_fwd(args, params, need_ctx, out):
    (a,) = args
    exponent = params["exponent"]
    if out is None:
        data = a ** exponent
    else:
        data = np.power(a, exponent, out=out.get(a.shape))
    return data, ((a,) if need_ctx else None)


def _pow_vjp(ctx, grad, needs, params):
    (a,) = ctx
    exponent = params["exponent"]
    return (grad * exponent * a ** (exponent - 1.0),)


_POW = defvjp(primitive("pow", _pow_fwd), _pow_vjp)


def _matmul_fwd(args, params, need_ctx, out):
    a, b = args
    if out is None:
        data = a @ b
    else:
        if a.ndim == 2 and b.ndim == 2:
            data = np.matmul(a, b, out=out.get((a.shape[0], b.shape[1])))
        elif a.ndim == 1 and b.ndim == 2:
            data = np.matmul(a, b, out=out.get((b.shape[1],)))
        elif a.ndim == 2 and b.ndim == 1:
            data = np.matmul(a, b, out=out.get((a.shape[0],)))
        else:
            data = a @ b
    return data, ((a, b) if need_ctx else None)


def _matmul_vjp(ctx, grad, needs, params):
    a_data, b_data = ctx
    ga = gb = None
    if needs[0]:
        if b_data.ndim == 1:
            ga = np.outer(grad, b_data) if a_data.ndim == 2 else grad * b_data
        else:
            ga = grad @ np.swapaxes(b_data, -1, -2)
        if a_data.ndim == 1 and ga.ndim == 2:
            ga = ga.sum(axis=0)
        ga = _unbroadcast(ga, a_data.shape)
    if needs[1]:
        if a_data.ndim == 1:
            gb = np.outer(a_data, grad) if b_data.ndim == 2 else grad * a_data
        else:
            gb = np.swapaxes(a_data, -1, -2) @ grad
        gb = _unbroadcast(gb, b_data.shape)
    return ga, gb


_MATMUL = defvjp(primitive("matmul", _matmul_fwd), _matmul_vjp)


def _reshape_fwd(args, params, need_ctx, out):
    (a,) = args
    return a.reshape(params["shape"]), ((a.shape,) if need_ctx else None)


def _reshape_vjp(ctx, grad, needs, params):
    return (grad.reshape(ctx[0]),)


_RESHAPE = defvjp(primitive("reshape", _reshape_fwd), _reshape_vjp)


def _transpose_fwd(args, params, need_ctx, out):
    (a,) = args
    return a.transpose(params["axes"]), None


def _transpose_vjp(ctx, grad, needs, params):
    return (grad.transpose(params["inverse"]),)


_TRANSPOSE = defvjp(primitive("transpose", _transpose_fwd), _transpose_vjp)


def _getitem_fwd(args, params, need_ctx, out):
    (a,) = args
    return a[params["index"]], ((a.shape,) if need_ctx else None)


def _getitem_vjp(ctx, grad, needs, params):
    full = np.zeros(ctx[0], dtype=grad.dtype)
    np.add.at(full, params["index"], grad)
    return (full,)


_GETITEM = defvjp(primitive("getitem", _getitem_fwd), _getitem_vjp)


def _reduced_shape(shape, axis, keepdims):
    if axis is None:
        return (1,) * len(shape) if keepdims else ()
    axes = a_norm(axis if isinstance(axis, tuple) else (axis,), len(shape))
    if keepdims:
        return tuple(1 if i in axes else s for i, s in enumerate(shape))
    return tuple(s for i, s in enumerate(shape) if i not in axes)


def _sum_fwd(args, params, need_ctx, out):
    (a,) = args
    axis, keepdims = params["axis"], params["keepdims"]
    if out is None:
        data = a.sum(axis=axis, keepdims=keepdims)
    else:
        data = a.sum(axis=axis, keepdims=keepdims,
                     out=out.get(_reduced_shape(a.shape, axis, keepdims)))
    return data, ((a.shape,) if need_ctx else None)


def _sum_vjp(ctx, grad, needs, params):
    (shape,) = ctx
    axis, keepdims = params["axis"], params["keepdims"]
    g = grad
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(a_norm(axes, len(shape))):
            g = np.expand_dims(g, ax)
    return (np.broadcast_to(g, shape).copy(),)


_SUM = defvjp(primitive("sum", _sum_fwd), _sum_vjp)


def _max_fwd(args, params, need_ctx, out):
    (a,) = args
    axis, keepdims = params["axis"], params["keepdims"]
    data = a.max(axis=axis, keepdims=keepdims)
    ctx = None
    if need_ctx:
        expanded = a.max(axis=axis, keepdims=True)
        mask = (a == expanded).astype(a.dtype)
        mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
        ctx = (mask, a.ndim)
    return data, ctx


def _max_vjp(ctx, grad, needs, params):
    mask, ndim = ctx
    axis, keepdims = params["axis"], params["keepdims"]
    g = grad
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(a_norm(axes, ndim)):
            g = np.expand_dims(g, ax)
    return (mask * g,)


_MAX = defvjp(primitive("max", _max_fwd), _max_vjp)
