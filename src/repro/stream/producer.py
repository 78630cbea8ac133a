"""Batch producers: turn plan work items into :class:`PreparedBatch`es.

Everything Algorithm 1 does *before* touching a parameter — slicing the
chronological event batch, drawing corrupted destinations and sampling
the η-BFS / ε-DFS contrast subgraphs (paper §IV-A) — is a pure function
of ``(graph, work item)`` once seeds derive from batch coordinates.
:func:`produce_batch` is that function; the producers just decide where
it runs:

* :class:`SerialProducer` — in-process, on the caller's thread: the
  plain loop, and the serial oracle every other producer must match.
* :class:`ForkProducer` — in N forked children that inherit the
  sampling context copy-on-write and run up to ``prefetch_batches``
  batches ahead, so the next batches are sampled on other cores while
  step i runs (``num_workers=N``; ``num_workers=0``, pre-training's
  default, is one child), given a spare core.

Because production is coordinate-seeded, both producers yield
bit-identical batches; the trainer's loss history cannot tell them
apart.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .. import obs as _obs
from ..core.contrast import draw_other_roots
from ..core.samplers import (EpsilonDFSSampler, EtaBFSSampler,
                             PrecomputedSampler)
from ..graph.batching import RandomDestinationSampler, slice_event_batch
from ..graph.events import EventStream
from ..graph.neighbor_finder import NeighborFinder
from .plan import BatchPlan, StreamError, WorkItem, batch_rngs
from .prepared import PreparedBatch

__all__ = ["ProducerSpec", "SamplingContext", "produce_batch",
           "BatchProducer", "SerialProducer", "ForkProducer",
           "make_producer"]


@dataclass
class ProducerSpec:
    """Everything a producer needs to build its sampling context."""

    batch_size: int
    seed: int = 0
    epochs: int = 1
    # Contrast sampling (paper §IV-A); both off → event slicing only.
    sample_temporal: bool = False
    sample_structural: bool = False
    eta: int = 10
    epsilon: int = 10
    depth: int = 2
    tau: float = 0.2
    precompute_samplers: bool = False
    sampler_cache_capacity: int | None = None
    # Corrupted-destination candidate set; None → unique stream dst.
    neg_candidates: np.ndarray | None = None
    # The graph; a producer may also be handed it directly.
    stream: EventStream | None = field(default=None, repr=False)

    @property
    def needs_finder(self) -> bool:
        return self.sample_temporal or self.sample_structural

    def make_plan(self, num_events: int) -> BatchPlan:
        return BatchPlan(num_events, self.batch_size, epochs=self.epochs,
                         seed=self.seed)


class SamplingContext:
    """One producer's resolved graph + samplers.

    Built once in the trainer for the serial and forked producers (the
    children inherit it); :func:`produce_batch` then only draws from
    per-batch generators, so the context itself holds no mutable
    randomness.
    """

    def __init__(self, spec: ProducerSpec,
                 stream: EventStream | None = None,
                 finder: NeighborFinder | None = None):
        self.spec = spec
        if stream is None:
            stream = spec.stream
        if stream is None:
            raise ValueError("ProducerSpec needs a stream")
        self.stream = stream
        if finder is None and spec.needs_finder:
            finder = NeighborFinder(stream)
        self.finder = finder
        self.num_nodes = stream.num_nodes
        # Per-batch generators are passed at each draw, so the sampler
        # carries no RNG of its own.
        self.neg_sampler = RandomDestinationSampler(
            stream, candidates=spec.neg_candidates)

        self.eta_pos = self.eta_neg = self.dfs = None
        if spec.sample_temporal:
            self.eta_pos = EtaBFSSampler(finder, spec.eta, spec.depth,
                                         probability="chronological",
                                         tau=spec.tau)
            self.eta_neg = EtaBFSSampler(finder, spec.eta, spec.depth,
                                         probability="reverse", tau=spec.tau)
        if spec.sample_structural:
            self.dfs = EpsilonDFSSampler(finder, spec.epsilon, spec.depth)
            if spec.precompute_samplers:
                self.dfs = PrecomputedSampler(
                    self.dfs, capacity=spec.sampler_cache_capacity)


def produce_batch(ctx: SamplingContext, item: WorkItem) -> PreparedBatch:
    """Produce one batch — pure in ``(ctx graph, item)``.

    All randomness comes from :func:`~repro.stream.plan.batch_rngs`, so
    the result is independent of which process runs this and of every
    other batch.
    """
    spec = ctx.spec
    if item.stop > ctx.stream.num_events:
        raise StreamError(f"work item {item.seq} covers events "
                          f"[{item.start}, {item.stop}), past the stream's "
                          f"{ctx.stream.num_events}")
    rngs = batch_rngs(spec.seed, item.epoch, item.batch_idx)
    with _obs.span("produce.negatives"):
        neg_dst = ctx.neg_sampler.sample(len(item), rng=rngs.neg_dst)
    batch = slice_event_batch(ctx.stream, item.start, item.stop, neg_dst)
    prepared = PreparedBatch(seq=item.seq, epoch=item.epoch,
                             batch_idx=item.batch_idx, batch=batch)

    if spec.sample_temporal:
        with _obs.span("produce.eta_bfs"):
            prepared.temporal_pos = ctx.eta_pos.sample_batch(
                batch.src, batch.timestamps, rng=rngs.temporal_pos)
            prepared.temporal_neg = ctx.eta_neg.sample_batch(
                batch.src, batch.timestamps, rng=rngs.temporal_neg)
    if spec.sample_structural:
        if ctx.num_nodes < 2:
            raise ValueError("structural contrast needs at least two nodes "
                             "to draw a negative root")
        with _obs.span("produce.eps_dfs"):
            others = draw_other_roots(np.asarray(batch.src, dtype=np.int64),
                                      ctx.num_nodes, rngs.structural)
            prepared.structural_pos = ctx.dfs.sample_batch(batch.src,
                                                           batch.timestamps)
            prepared.structural_neg = ctx.dfs.sample_batch(others,
                                                           batch.timestamps)
    return prepared


# ----------------------------------------------------------------------
# producers
# ----------------------------------------------------------------------

class BatchProducer:
    """Iterable of :class:`PreparedBatch` in plan order, with teardown.

    Context-manager protocol guarantees worker teardown even when the
    *consumer* raises mid-iteration.
    """

    def __iter__(self):
        raise NotImplementedError

    def close(self) -> None:
        """Release child processes; idempotent."""

    def __enter__(self) -> "BatchProducer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialProducer(BatchProducer):
    """In-process producer on the caller's thread — the serial oracle."""

    def __init__(self, spec: ProducerSpec, plan: BatchPlan | None = None,
                 stream: EventStream | None = None,
                 finder: NeighborFinder | None = None):
        self._ctx = SamplingContext(spec, stream=stream, finder=finder)
        self.plan = plan if plan is not None \
            else spec.make_plan(self._ctx.stream.num_events)

    def __iter__(self):
        for item in self.plan:
            yield produce_batch(self._ctx, item)


class ForkProducer(SerialProducer):
    """Production in ``num_children`` forked child processes, up to
    ``prefetch_batches`` batches ahead of the consumer.

    The sampling context is built here, before the fork, so the children
    inherit graph, finder and samplers copy-on-write: no file is
    written, nothing is pickled on the way in, nothing is imported and
    no socket is opened.  Child k of N runs :func:`produce_batch` over
    plan items k, k + N, k + 2N, … and pipes each batch back; the
    consumer reads pipe ``seq % N``, so batches arrive in plan order with
    no reassembly.  Sampling and the consumer's step run on separate
    cores without sharing a GIL.  Flow control is by credit:
    ``max(prefetch_batches, N)`` dealt round-robin at the start (at
    least one per child) and one more to a child per batch received from
    it; a child reads one before each batch and exits at EOF (the
    consumer closed the pipe or died).  Batches are coordinate-seeded,
    so they equal :class:`SerialProducer`'s bit for bit.

    An exception raised in production is re-raised in the consumer at
    that batch (one that does not survive pickling arrives as a
    :class:`StreamError` carrying its traceback text); a child that dies
    is a :class:`StreamError` naming its exit code and the batch.  A
    stopped (SIGSTOP) child blocks the consumer at its next batch; once
    that wait passes :data:`STALL_FACTOR` times the pass's median batch
    time (and at least :data:`STALL_FLOOR_S`), the
    ``repro_stream_produce_wait_seconds`` gauge reads the wait so far
    and one :class:`RuntimeWarning` per pass names the child and the
    batch.  The children's ``produce.*`` spans travel with each batch and
    are handed to :func:`repro.obs.record_remote`; counters they
    increment stay in the children.
    """

    def __init__(self, spec: ProducerSpec, plan: BatchPlan | None = None,
                 stream: EventStream | None = None,
                 finder: NeighborFinder | None = None,
                 prefetch_batches: int = 4, num_children: int = 1):
        super().__init__(spec, plan, stream=stream, finder=finder)
        self.num_children = max(int(num_children), 1)
        self.prefetch_batches = max(int(prefetch_batches),
                                    self.num_children)
        self._children: list = []
        self._pipes: list = []  # per child: (batches in, credits out)

    def __iter__(self):
        self.close()  # one pass at a time
        children, pipes = self._children, self._pipes
        count = max(min(self.num_children, len(self.plan)), 1)
        try:
            fork = mp.get_context("fork")
            for k in range(count):
                # Two one-way pipes, not a socket pair: nothing here is a
                # socket.
                batches, batches_out = fork.Pipe(duplex=False)
                _widen(batches)
                credits_in, credits = fork.Pipe(duplex=False)
                pipes.append((batches, credits))
                child = fork.Process(target=self._produce,
                                     args=(credits_in, batches_out, k, count),
                                     name=f"repro-fork-producer-{k}",
                                     daemon=True)
                child.start()
                children.append(child)
                # Closed before the next fork, so no other child holds
                # this one's ends and its death is EOF on its pipe.
                credits_in.close()
                batches_out.close()
            for n in range(self.prefetch_batches):
                _credit(pipes[n % count][1])
            # Seconds between the last batches' arrivals: the pass's
            # batch time, which a stall is measured against.
            gaps: deque = deque(maxlen=_STALL_WINDOW)
            arrived = None
            warned = False
            for item in self.plan:
                k = item.seq % count
                batches, credits = pipes[k]
                try:
                    if not batches.poll():
                        warned = _await(batches, k, children[k].pid,
                                        item.seq, gaps, warned)
                    prepared, spans, error = batches.recv()
                except (EOFError, OSError):
                    children[k].join(5.0)
                    raise StreamError(
                        f"forked producer {k} died (exit code "
                        f"{children[k].exitcode}) while producing batch "
                        f"{item.seq}") from None
                now = time.monotonic()
                if arrived is not None:
                    gaps.append(now - arrived)
                arrived = now
                for record in spans:
                    _obs.record_remote(record)
                if error is not None:
                    raise error
                _credit(credits)
                yield prepared
        finally:
            if self._children is children:  # not a later pass's children
                self.close()

    def _produce(self, credits, batches, k: int, count: int) -> None:
        """Child k's loop: a credit in, a batch and its spans out."""
        # A child's copy of a parent end would keep that pipe open after
        # the parent dies; EOF has to mean the consumer is gone.
        for pair in self._pipes:
            for end in pair:
                end.close()
        try:
            for seq in range(k, len(self.plan), count):
                item = self.plan.item(seq)
                credits.recv_bytes()
                try:
                    prepared, error = produce_batch(self._ctx, item), None
                except Exception as exc:  # re-raised by the consumer
                    prepared, error = None, _portable(exc, item.seq)
                batches.send((prepared, _obs.drain(), error))
                if error is not None:
                    return
        except (EOFError, OSError):
            return  # the consumer closed its ends or died

    def close(self) -> None:
        """Close the pipes, stop the children and reap them; idempotent."""
        children, pipes = self._children, self._pipes
        self._children, self._pipes = [], []
        for pair in pipes:
            for end in pair:
                end.close()
        for child in children:
            child.terminate()
        for child in children:
            child.join()


_CREDIT = b""

# A wait on one child longer than STALL_FACTOR median batch times, and
# at least STALL_FLOOR_S, is a stall; the median is over the last
# _STALL_WINDOW batches.
STALL_FACTOR = 20
STALL_FLOOR_S = 1.0
_STALL_WINDOW = 64


def _await(pipe, k: int, pid: int, seq: int, gaps, warned: bool) -> bool:
    """Block until ``pipe`` is readable (a batch, or EOF from a dead
    child).  Past the stall limit, keep the wait gauge current and warn
    once per pass (``warned``); returns the updated ``warned``."""
    median = float(np.median(gaps)) if gaps else 0.0
    limit = max(STALL_FACTOR * median, STALL_FLOOR_S)
    start = time.monotonic()
    gauge = None
    while not pipe.poll(limit):
        waited = time.monotonic() - start
        gauge = _obs.gauge("repro_stream_produce_wait_seconds",
                           help="seconds the trainer has waited on a "
                                "stalled producer child (0: no stall)")
        gauge.set(waited)
        if not warned:
            warned = True
            warnings.warn(
                f"forked producer {k} (pid {pid}) has not "
                f"delivered batch {seq} after {waited:.1f} s, over "
                f"{STALL_FACTOR} times this pass's median batch time "
                f"({median * 1e3:.1f} ms); a stopped child blocks the "
                "trainer until it continues", RuntimeWarning, stacklevel=3)
    if gauge is not None:
        gauge.set(0.0)
    return warned


def _credit(conn) -> None:
    try:
        conn.send_bytes(_CREDIT)
    except OSError:
        pass  # the child is done or gone; its pipe's next recv says which


def _widen(pipe) -> None:
    """Give a batch pipe room for several batches where the platform lets
    a process resize its pipes (Linux): a batch can outgrow a default
    64 kB pipe, and a child blocked on a full pipe cannot start its next
    batch."""
    try:
        import fcntl
        fcntl.fcntl(pipe.fileno(), fcntl.F_SETPIPE_SZ, 1 << 20)
    except (ImportError, AttributeError, OSError):
        pass  # keep the default size


def _portable(exc: Exception, seq: int) -> Exception:
    """``exc`` if it survives a pickle round trip, else a
    :class:`StreamError` carrying its traceback text."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        text = "".join(traceback.format_exception(type(exc), exc,
                                                  exc.__traceback__))
        return StreamError(f"producing batch {seq} raised an exception "
                           f"that cannot be pickled:\n{text}")


def make_producer(spec: ProducerSpec, plan: BatchPlan | None = None,
                  num_workers: int = 0, prefetch_batches: int = 4,
                  finder: NeighborFinder | None = None) -> BatchProducer:
    """Build the producer a config asks for: a :class:`ForkProducer`
    with ``max(num_workers, 1)`` forked children where ``fork`` exists
    and the process has a spare core, else :class:`SerialProducer`
    (with a warning when ``num_workers`` asked for children).
    """
    if num_workers > 0 and _usable_cores() < 2:
        # With no spare core the children time-slice against the
        # trainer and lose to the serial path outright (see
        # BENCH_stream.json) — fall back instead of silently regressing.
        warnings.warn(
            f"num_workers={num_workers} requested but this process has no "
            f"spare core for producer processes ({_usable_cores()} usable); "
            "falling back to the in-process producer",
            RuntimeWarning, stacklevel=2)
    if "fork" in mp.get_all_start_methods() and _usable_cores() >= 2:
        return ForkProducer(spec, plan, finder=finder,
                            prefetch_batches=prefetch_batches,
                            num_children=num_workers)
    return SerialProducer(spec, plan, finder=finder)


def _usable_cores() -> int:
    """Cores this process may run on: the affinity mask (taskset,
    container cpusets) where the platform has one, else the core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
