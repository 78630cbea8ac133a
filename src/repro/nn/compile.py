"""Compiled autograd: trace a train step once, replay it as a straight-line
program.

The training loops of this codebase are *shape-stable*: every
:class:`~repro.stream.PreparedBatch` of the same size runs the exact same
op sequence, so the per-step cost of rebuilding the autograd graph —
node allocation, topological sort, VJP dispatch, gradient first-store
copies — is pure overhead after the first step.  :class:`CompiledStep`
removes it:

* **Trace** — the first call with a given ``key`` runs the wrapped
  function eagerly while recording every
  :class:`~repro.nn.autograd.Primitive` application (and the backward
  processing order) onto a flat tape.
* **Compile** — the tape becomes a :class:`_Program`: per-op output
  buffers (grow-on-demand pools) and a straight-line backward item list
  with gradient cells replicating eager accumulation bit-for-bit.
* **Replay** — subsequent calls re-execute the Python function, but every
  ``apply_op`` is intercepted: the op is validated against the recorded
  program (primitive identity, input wiring, leaf dtypes) and its kernel
  writes into the pre-allocated buffer; ``backward()`` becomes one loop
  over the recorded items.  No graph nodes are constructed.
* **Fallback** — any divergence (different op stream, wiring, or a kernel
  shape error) raises an internal mismatch, and the step transparently
  re-runs eagerly; the key is re-traced a bounded number of times before
  being marked permanently eager.  The wrapped function must therefore be
  idempotent per batch (pop mutable inputs *outside* and pass them in —
  see :meth:`~repro.dgnn.encoder.DGNNEncoder.take_staged`).

Replayed results are bit-identical to eager execution: replay runs the
primitives' own kernels (the same ufunc call sequence) and gradient cells
replicate ``_accumulate``'s copy/add/sparse semantics in the same order.
Eager autograd is the oracle of replay (``compile_step=False`` /
``nn.compile=false``), never the other way round.

**Memory.**  A program holds only what its next replay reads, and lives
exactly as long as its ``CompiledStep``: intermediates name it by an
identity token, so dropping the step frees it by reference counting
instead of at the next cycle collection (``transfer-e2e`` peak RSS 197 →
155 MB: pre-training's programs no longer stack under fine-tuning's).
Three rules keep replay at eager's footprint:

* building drops the gradients the trace step's eager backward left on
  the intermediates — no replay reads them;
* backward empties each gradient cell right after the one item that
  reads it, so no intermediate gradient outlives the step (saved contexts
  stay warm: releasing them together with the cells after every backward
  cost ``pretrain-hub`` +13 % wall time);
* one program is resident: a call whose key differs from the previous
  call's releases that key's pooled buffers, contexts and intermediate
  data, but keeps its records, so switching back replays without a
  retrace while the buffers regrow.

Outputs of a call — intermediates' data, pooled buffers — are valid until
the next call of the same ``CompiledStep``, whatever its key: copy to
keep them.

**A train-step engine only.**  A forward pass under ``no_grad`` builds no
graph, so replaying one only adds per-op validation (``serve-read`` eager
1.416 s, replayed 1.600 s): :mod:`repro.serve` runs the plain eager pass.
The installed engine is per thread (:mod:`repro.nn.autograd`): a replay
never intercepts another thread's ops.
"""

from __future__ import annotations

import numpy as np

from .autograd import (SparseRowGrad, Tensor, _eager_apply, get_tracer,
                       set_tracer)
from .scatter import scatter_add_rows
from .. import obs as _obs

__all__ = ["CompiledStep", "ReplayMismatch"]


_NO_KEY = object()


class ReplayMismatch(Exception):
    """Internal: replayed execution diverged from the recorded program."""


class _Buf:
    """A grow-on-demand flat buffer serving one op's output per call."""

    __slots__ = ("dtype", "arr")

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)
        self.arr: np.ndarray | None = None

    def get(self, shape) -> np.ndarray:
        n = 1
        for s in shape:
            n *= s
        arr = self.arr
        if arr is None or arr.size < n:
            arr = np.empty(n, dtype=self.dtype)
            self.arr = arr
        return arr[:n].reshape(shape)


class _GradCell:
    """Gradient accumulator for one intermediate slot.

    Replicates :meth:`Tensor._accumulate` bit-for-bit (copy-on-first-store
    with dtype cast, in-place adds, sparse append/densify), with one
    optimization: a *fresh* dense first contribution of the right dtype is
    adopted without the copy — later contributions add into it in place,
    producing the same values in the same order.
    """

    __slots__ = ("dtype", "value", "sparse")

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)
        self.value = None
        self.sparse = False

    def reset(self) -> None:
        self.value = None
        self.sparse = False

    def add(self, g, borrowed: bool) -> None:
        if isinstance(g, SparseRowGrad):
            if self.value is None:
                self.value = SparseRowGrad(
                    g.shape, g.indices,
                    np.array(g.values, dtype=self.dtype, copy=True))
                self.sparse = True
            elif self.sparse:
                self.value.append(g)
            else:
                scatter_add_rows(self.value, g.indices, g.values)
        else:
            if self.value is None:
                if borrowed or g.dtype != self.dtype:
                    self.value = np.array(g, dtype=self.dtype, copy=True)
                else:
                    self.value = g
            elif self.sparse:
                dense = self.value.to_dense()
                dense += g
                self.value = dense
                self.sparse = False
            else:
                self.value += g

    def read(self):
        if self.sparse:
            self.value = self.value.to_dense()
            self.sparse = False
        return self.value


class _FwdRec:
    """One forward op of a compiled program."""

    __slots__ = ("prim", "in_slots", "in_requires", "need_ctx", "out_slot",
                 "out_dtype", "out_tensor", "out_buf", "ctx", "params")


class _BwdStep:
    """One backward item: VJP + per-target accumulation."""

    __slots__ = ("rec", "targets")

    def __init__(self, rec: _FwdRec, targets: tuple):
        self.rec = rec
        self.targets = targets   # ((input_pos, slot, is_leaf), ...)

    def run(self, rp: "_Replay") -> None:
        rec = self.rec
        cells = rp.p.cells
        g = cells[rec.out_slot].read()
        if g is None:
            raise ReplayMismatch("missing gradient during replay")
        grads = rec.prim.vjp(rec.ctx, g, rec.in_requires, rec.params)
        # Each slot feeds exactly one item: its gradient is dead from here.
        cells[rec.out_slot].reset()
        for pos, slot, leaf in self.targets:
            gi = grads[pos]
            if gi is None:
                continue
            if leaf:
                rp.slot_obj[slot]._accumulate(gi)
            else:
                borrowed = gi is g or (isinstance(gi, np.ndarray)
                                       and gi.base is not None)
                cells[slot].add(gi, borrowed)


class _Program:
    """A compiled step: forward records plus a straight-line backward."""

    __slots__ = ("records", "n_slots", "slot_leaf", "slot_requires",
                 "slot_dtype", "slot_tensor", "loss_slot", "items", "cells",
                 "cells_used", "seed_buf", "token")

    def release(self) -> None:
        """Drop what only a replay of this program reads: pooled buffers,
        saved contexts, op params and the intermediates' data.  Records
        and backward items stay, so the next replay regrows the buffers
        without a retrace."""
        for rec in self.records:
            if rec.out_buf is not None:
                rec.out_buf.arr = None
            rec.ctx = None
            rec.params = None
            rec.out_tensor.data = np.empty(0, rec.out_dtype)
        self.seed_buf.arr = None


class _Trace:
    """Recording engine: runs ops eagerly while building the tape."""

    replaying = False

    def __init__(self):
        self.slots: list[tuple[Tensor, bool]] = []   # (tensor, is_leaf)
        self.by_id: dict[int, int] = {}
        # (prim, in_slots, in_requires, out_slot, out_requires, out_dtype,
        #  out_contiguous)
        self.records: list[tuple] = []
        self.failed: str | None = None
        self.loss_slot: int | None = None
        self.steps: list[int] | None = None          # backward order (slots)

    def fail(self, reason: str) -> None:
        if self.failed is None:
            self.failed = reason

    def _new_slot(self, tensor: Tensor, leaf: bool) -> int:
        s = len(self.slots)
        self.slots.append((tensor, leaf))
        self.by_id[id(tensor)] = s
        return s

    def apply(self, prim, inputs, params) -> Tensor:
        out = _eager_apply(prim, inputs, params)
        if self.failed is not None:
            return out
        in_slots = []
        for t in inputs:
            s = self.by_id.get(id(t))
            if s is None:
                if t._node is not None:
                    self.fail(f"input to '{prim.name}' carries a graph built "
                              "outside the traced step")
                    return out
                s = self._new_slot(t, True)
            in_slots.append(s)
        o = self._new_slot(out, False)
        self.records.append((prim, tuple(in_slots),
                             tuple(t.requires_grad for t in inputs),
                             o, out.requires_grad, out.data.dtype,
                             out.data.flags.c_contiguous))
        return out

    # -- hooks called from Tensor.backward while tracing ----------------
    def begin_backward(self, tensor: Tensor, grad: np.ndarray) -> None:
        if self.failed is not None:
            return
        if self.steps is not None:
            self.fail("multiple backward() calls in one step")
            return
        s = self.by_id.get(id(tensor))
        if s is None or self.slots[s][1]:
            self.fail("backward() target was not produced by the traced step")
            return
        if grad.size != 1 or grad.reshape(-1)[0] != 1.0:
            self.fail("non-default backward seed")
            return
        self.loss_slot = s
        self.steps = []

    def note_step(self, tensor: Tensor) -> None:
        if self.failed is not None or self.steps is None:
            return
        self.steps.append(self.by_id[id(tensor)])

    # -- program construction -------------------------------------------
    def build(self) -> _Program:
        p = _Program()
        p.n_slots = len(self.slots)
        p.slot_leaf = [leaf for _, leaf in self.slots]
        p.slot_requires = [t.requires_grad for t, _ in self.slots]
        p.slot_dtype = [t.data.dtype for t, _ in self.slots]
        p.slot_tensor = [None] * p.n_slots
        p.loss_slot = self.loss_slot
        p.token = object()   # intermediates refer to p by this: no ref cycle

        recs: list[_FwdRec] = []
        rec_of_slot: dict[int, _FwdRec] = {}
        for (prim, in_slots, in_requires, o, out_req, out_dtype,
             out_contig) in self.records:
            r = _FwdRec()
            r.prim = prim
            r.in_slots = in_slots
            r.in_requires = in_requires
            r.need_ctx = out_req
            r.out_slot = o
            r.out_dtype = out_dtype
            # Pooled buffers are C-contiguous; when the traced output was
            # not (ufuncs propagate the layout of transpose-view operands,
            # and reduction bits depend on memory order), replay must let
            # the kernel allocate so numpy reproduces the eager layout —
            # and therefore the eager bits — exactly.
            r.out_buf = _Buf(out_dtype) if out_contig else None
            r.ctx = None
            r.params = None
            tensor = self.slots[o][0]
            # The traced output tensors become the program's persistent
            # intermediates: replay rebinds their .data in place, so any
            # Python references the step function captured stay valid.
            tensor._slot = (p.token, o)
            tensor._node = None
            tensor._grad = None   # the trace's eager backward left it
            r.out_tensor = tensor
            p.slot_tensor[o] = tensor
            recs.append(r)
            rec_of_slot[o] = r
        p.records = recs

        p.items = []
        p.cells = [None] * p.n_slots
        p.cells_used = []

        # Backward items in the recorded (eager) processing order, and a
        # gradient cell for every slot the backward reads or feeds.
        def _need_cell(slot: int) -> None:
            if p.cells[slot] is None:
                cell = _GradCell(p.slot_dtype[slot])
                p.cells[slot] = cell
                p.cells_used.append(cell)

        _need_cell(p.loss_slot)
        for s in self.steps:
            rec = rec_of_slot[s]
            targets = tuple(
                (pos, slot, p.slot_leaf[slot])
                for pos, slot in enumerate(rec.in_slots)
                if rec.in_requires[pos])
            p.items.append(_BwdStep(rec, targets))
            _need_cell(s)
            for _pos, slot, leaf in targets:
                if not leaf:
                    _need_cell(slot)
        p.seed_buf = _Buf(p.slot_dtype[p.loss_slot])
        return p


class _Replay:
    """Replay engine: validates the op stream and runs recorded kernels."""

    replaying = True

    __slots__ = ("p", "cursor", "slot_obj", "backward_done")

    def __init__(self, program: _Program):
        self.p = program
        self.cursor = 0
        # Intermediates are the program's persistent tensors; leaves are
        # rebound per call on first use.
        self.slot_obj: list[Tensor | None] = list(program.slot_tensor)
        self.backward_done = False

    def apply(self, prim, inputs, params) -> Tensor:
        p = self.p
        i = self.cursor
        if i >= len(p.records):
            raise ReplayMismatch("step ran more ops than recorded")
        rec = p.records[i]
        if prim is not rec.prim or len(inputs) != len(rec.in_slots):
            raise ReplayMismatch(f"op #{i} is '{prim.name}', recorded "
                                 f"'{rec.prim.name}'")
        slot_obj = self.slot_obj
        for k, t in enumerate(inputs):
            s = rec.in_slots[k]
            cur = slot_obj[s]
            if cur is t:
                continue
            if p.slot_leaf[s]:
                if cur is not None:
                    raise ReplayMismatch("leaf input rebound mid-step")
                if t._node is not None:
                    raise ReplayMismatch("leaf input carries an eager graph")
                sl = t._slot
                if sl is not None and sl[0] is p.token:
                    raise ReplayMismatch("intermediate used as leaf")
                if t.requires_grad != rec.in_requires[k]:
                    raise ReplayMismatch("leaf requires_grad changed")
                if t.data.dtype != p.slot_dtype[s]:
                    raise ReplayMismatch("leaf dtype changed")
                slot_obj[s] = t
            else:
                raise ReplayMismatch("op wiring changed")
        data, ctx = prim.fwd(tuple(t.data for t in inputs), params,
                             rec.need_ctx, rec.out_buf)
        if not isinstance(data, np.ndarray) or data.dtype != rec.out_dtype:
            data = np.asarray(data, dtype=rec.out_dtype)
        rec.ctx = ctx
        rec.params = params
        out = rec.out_tensor
        out.data = data
        self.cursor += 1
        return out

    def replay_backward(self, tensor: Tensor, grad) -> None:
        p = self.p
        if self.backward_done:
            raise ReplayMismatch("multiple backward() calls")
        if self.cursor != len(p.records):
            raise ReplayMismatch("backward() before all recorded ops ran")
        sl = tensor._slot
        if sl is None or sl[0] is not p.token or sl[1] != p.loss_slot:
            raise ReplayMismatch("backward() from a different output")
        if grad is not None:
            g = np.asarray(grad)
            if g.size != 1 or g.reshape(-1)[0] != 1.0:
                raise ReplayMismatch("non-default backward seed")
        seed = p.seed_buf.get(tensor.data.shape)
        seed.fill(1.0)
        p.cells[p.loss_slot].add(seed, False)
        for item in p.items:
            item.run(self)
        self.backward_done = True


class CompiledStep:
    """Trace-and-replay wrapper for a shape-stable train step.

    Parameters
    ----------
    fn:
        The step function.  It must run exactly one ``backward()`` (and
        should zero grads itself so an aborted replay can re-run it), and
        it must be re-runnable for one batch: pop mutable state outside
        and pass it as an argument.
    enabled:
        When false, calls pass straight through to ``fn`` (the
        ``nn.compile=false`` escape hatch).
    max_retraces:
        Re-trace budget per key after mismatches before the key is
        permanently demoted to eager execution.

    Call with ``key=<hashable>`` describing every shape/branch degree of
    freedom of the step (batch size, staged-messages presence, subgraph
    emptiness, …); each key gets its own program, and only the last
    called key's program holds buffers.
    """

    def __init__(self, fn, *, enabled: bool = True, max_retraces: int = 4):
        self.fn = fn
        self.enabled = enabled
        self.max_retraces = max_retraces
        self._programs: dict = {}
        self._resident = _NO_KEY   # the one key whose program holds buffers
        self._failures: dict = {}
        self._dead: set = set()
        self.last_failure: str | None = None
        # traces / replays / mismatches / eager calls; read as int(c).
        self.counters = _obs.owned_counters(
            "repro_compile", ("traces", "replays", "mismatches", "eager"),
            help="CompiledStep {} count")
        self._program_ops = _obs.gauge(
            "repro_compile_program_ops",
            help="forward ops in the most recently built compiled program")

    def __call__(self, *args, key=None, **kwargs):
        # Nested compilation composes by flattening: when another
        # trace/replay is active, run plainly and let it record our ops.
        if not self.enabled or key in self._dead or get_tracer() is not None:
            self.counters["eager"].inc()
            return self.fn(*args, **kwargs)
        if key != self._resident:
            resident = self._programs.get(self._resident)
            if resident is not None:
                resident.release()
            self._resident = key
        program = self._programs.get(key)
        if program is None:
            return self._trace(key, args, kwargs)
        rep = _Replay(program)
        prev = set_tracer(rep)
        try:
            result = self.fn(*args, **kwargs)
            if rep.cursor != len(program.records):
                raise ReplayMismatch("step replayed fewer ops than recorded")
            if not rep.backward_done:
                raise ReplayMismatch("step skipped backward during replay")
            self.counters["replays"].inc()
            return result
        except (ReplayMismatch, ValueError, IndexError) as exc:
            self.last_failure = str(exc)
        finally:
            set_tracer(prev)
        # Divergence: drop the program and re-run the batch eagerly (the
        # step contract makes re-running safe).  A genuine error in fn
        # re-raises here, now with an honest eager traceback.
        self.counters["mismatches"].inc()
        self._programs.pop(key, None)
        self._note_failure(key)
        if key in self._dead:
            self.counters["eager"].inc()
            return self.fn(*args, **kwargs)
        return self._trace(key, args, kwargs)

    def _trace(self, key, args, kwargs):
        tr = _Trace()
        prev = set_tracer(tr)
        try:
            result = self.fn(*args, **kwargs)
        finally:
            set_tracer(prev)
        self.counters["traces"].inc()
        if tr.failed is None and tr.steps is None:
            tr.fail("traced step never called backward()")
        if tr.failed is None:
            program = self._programs[key] = tr.build()
            self._program_ops.set(len(program.records))
        else:
            self.last_failure = tr.failed
            self._note_failure(key)
        return result

    def _note_failure(self, key) -> None:
        count = self._failures.get(key, 0) + 1
        self._failures[key] = count
        if count > self.max_retraces:
            self._dead.add(key)

    # -- introspection ---------------------------------------------------
    def program_size(self, key=None) -> int | None:
        """Number of recorded forward ops for ``key`` (None if untraced)."""
        program = self._programs.get(key)
        return None if program is None else len(program.records)
