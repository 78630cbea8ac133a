"""Batch producers: turn plan work items into :class:`PreparedBatch`es.

Everything Algorithm 1 does *before* touching a parameter — slicing the
chronological event batch, drawing corrupted destinations, sampling the
η-BFS / ε-DFS contrast subgraphs (paper §IV-A) and staging the raw-
message skeleton — is a pure function of ``(graph, work item)`` once
seeds derive from batch coordinates.  :func:`produce_batch` is that
function; the two producers just decide where it runs:

* :class:`SerialProducer` — in-process, zero overhead; the refactored
  shape of the historical inline loop.
* :class:`MultiprocessProducer` — N spawn workers pulling work items
  from a queue with bounded prefetch.  Workers open the graph from
  ``numpy.memmap``-backed shards (:mod:`repro.stream.shards`) — the CSR
  and event arrays are paged in read-only, never pickled — and results
  are reassembled in plan order on the consumer side.

Because production is coordinate-seeded, both producers yield
bit-identical batches; the trainer's loss history cannot tell them
apart.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import queue as queue_module
import shutil
import tempfile
import threading
import time
import traceback
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .. import obs as _obs
from ..core.contrast import draw_other_roots
from ..core.samplers import (EpsilonDFSSampler, EtaBFSSampler,
                             PrecomputedSampler)
from ..graph.batching import RandomDestinationSampler, slice_event_batch
from ..graph.events import EventStream
from ..graph.neighbor_finder import NeighborFinder
from .plan import BatchPlan, StreamError, WorkItem, batch_rngs
from .prepared import MessageSkeleton, PreparedBatch
from .shards import export_graph_shards, open_graph_shards

__all__ = ["ProducerSpec", "SamplingContext", "produce_batch",
           "BatchProducer", "SerialProducer", "MultiprocessProducer",
           "make_producer"]

_ERROR = "__producer_error__"
_HEARTBEAT = "__producer_heartbeat__"


@dataclass
class ProducerSpec:
    """Everything a producer needs to build its sampling context.

    The spec is pickle-friendly by construction: for multiprocess use the
    graph travels as a ``shard_dir`` path (workers memory-map it), never
    as in-memory arrays.  ``stream`` is the in-process alternative used
    by :class:`SerialProducer` and by the exporting side.
    """

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
    # Raw-message skeleton staging (delta_t needs the CSR).
    compute_messages: bool = True
    # Carried-over last-update clock (fine-tuning continues pre-training's).
    base_last_update: np.ndarray | None = None
    # Corrupted-destination candidate set; None → unique stream dst.
    neg_candidates: np.ndarray | None = None
    # Graph source: exactly one of the two.
    stream: EventStream | None = field(default=None, repr=False)
    shard_dir: str | None = None
    mmap: bool = True

    @property
    def needs_finder(self) -> bool:
        return (self.sample_temporal or self.sample_structural
                or self.compute_messages)

    def make_plan(self, num_events: int) -> BatchPlan:
        return BatchPlan(num_events, self.batch_size, epochs=self.epochs,
                         seed=self.seed)


class SamplingContext:
    """One producer's resolved graph + samplers (per process).

    Built once per worker (or once, in-process, for the serial producer);
    :func:`produce_batch` then only draws from per-batch generators, so
    the context itself holds no mutable randomness.
    """

    def __init__(self, spec: ProducerSpec,
                 stream: EventStream | None = None,
                 finder: NeighborFinder | None = None):
        self.spec = spec
        if stream is None:
            stream = spec.stream
        if stream is None:
            if spec.shard_dir is None:
                raise ValueError("ProducerSpec needs a stream or a shard_dir")
            stream, shard_finder = open_graph_shards(spec.shard_dir,
                                                     mmap=spec.mmap)
            if finder is None:
                finder = shard_finder
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
    rngs = batch_rngs(spec.seed, item.epoch, item.batch_idx)
    size = len(item)
    with _obs.span("produce.negatives"):
        neg_dst = ctx.neg_sampler.sample(size, rng=rngs.neg_dst)
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
    if spec.compute_messages and size:
        with _obs.span("produce.messages"):
            src = np.asarray(batch.src, dtype=np.int64)
            dst = np.asarray(batch.dst, dtype=np.int64)
            nodes = np.empty(2 * size, dtype=np.int64)
            nodes[0::2] = src
            nodes[1::2] = dst
            times = np.repeat(np.asarray(batch.timestamps,
                                         dtype=np.float64), 2)
            last = ctx.finder.batch_last_update(nodes, item.start,
                                                base=spec.base_last_update)
            prepared.messages = MessageSkeleton(
                nodes=nodes, times=times, delta_t=times - last,
                event_ids=np.repeat(np.asarray(batch.event_ids,
                                               dtype=np.int64), 2))
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
        """Release workers / temporary shards; idempotent."""

    def __enter__(self) -> "BatchProducer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialProducer(BatchProducer):
    """In-process producer — the refactored shape of the inline loop."""

    def __init__(self, spec: ProducerSpec, plan: BatchPlan | None = None,
                 stream: EventStream | None = None,
                 finder: NeighborFinder | None = None):
        self._ctx = SamplingContext(spec, stream=stream, finder=finder)
        self.plan = plan if plan is not None \
            else spec.make_plan(self._ctx.stream.num_events)

    def __iter__(self):
        for item in self.plan:
            yield produce_batch(self._ctx, item)


def _worker_main(spec: ProducerSpec, task_queue, result_queue,
                 heartbeat_interval: float = 2.0) -> None:
    """Worker loop: open shards, produce until the ``None`` sentinel.

    A daemon thread ticks heartbeats onto the result queue so the
    consumer can tell a *hung* worker (alive but frozen — e.g. stopped,
    or deadlocked in native code) from a merely slow one: production
    blocks the main thread, but the heartbeat thread keeps beating
    unless the whole process is frozen.

    Heartbeats and errors carry the worker's position — the seq in
    production and a coarse stage name — so a crash or hang is
    attributable from the consumer-side :class:`StreamError` alone.
    """
    name = mp.current_process().name
    stop = threading.Event()
    # Shared with the heartbeat thread; plain dict mutation is atomic
    # enough for an advisory progress marker.
    current = {"seq": None, "stage": "init"}

    def _beat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                result_queue.put((_HEARTBEAT,
                                  (name, current["seq"], current["stage"])))
            except Exception:
                return

    def _fail() -> None:
        result_queue.put((_ERROR, {"worker": name,
                                   "seq": current["seq"],
                                   "stage": current["stage"],
                                   "traceback": traceback.format_exc()}))

    threading.Thread(target=_beat, daemon=True,
                     name=f"{name}-heartbeat").start()
    try:
        try:
            ctx = SamplingContext(spec)
        except BaseException:
            _fail()
            return
        current["stage"] = "idle"
        while True:
            item = task_queue.get()
            if item is None:
                return
            current["seq"] = item.seq
            current["stage"] = "produce"
            try:
                result_queue.put((item.seq,
                                  produce_batch(ctx, item).materialize()))
            except BaseException:
                _fail()
                return
            current["stage"] = "idle"
    finally:
        stop.set()


class MultiprocessProducer(BatchProducer):
    """N spawn workers over shared memory-mapped graph shards.

    ``prefetch_batches`` bounds how many work items may be in flight
    (queued, in production, or awaiting reassembly) — backpressure that
    keeps fast producers from racing arbitrarily far ahead of the
    gradient step.  Results arrive out of order and are reassembled by
    sequence number; the holdback buffer is bounded by the same prefetch
    window.
    """

    def __init__(self, spec: ProducerSpec, plan: BatchPlan | None = None,
                 num_workers: int = 2, prefetch_batches: int = 4,
                 finder: NeighborFinder | None = None,
                 timeout: float = 300.0, heartbeat_interval: float = 2.0,
                 hang_timeout: float = 30.0):
        # Safety first: __del__/close() must work however early __init__
        # fails.
        self._closed = False
        self._workers: list = []
        self._tmpdir: str | None = None
        self._tasks = self._results = None

        if num_workers < 1:
            raise StreamError("MultiprocessProducer needs num_workers >= 1; "
                              "use SerialProducer (num_workers=0) instead")
        if prefetch_batches < 1:
            raise StreamError("prefetch_batches must be >= 1")
        try:
            self._mp = mp.get_context("spawn")
        except ValueError as exc:  # pragma: no cover - platform-specific
            raise StreamError(
                "multiprocess batch production needs the 'spawn' start "
                "method, which this platform does not provide; run with "
                "num_workers=0") from exc
        if spec.stream is None and spec.shard_dir is None:
            raise ValueError("ProducerSpec needs a stream or a shard_dir")

        # Validate the plan/worker fit before any expensive shard export.
        if plan is None:
            num_events = (spec.stream.num_events if spec.stream is not None
                          else _shard_num_events(spec.shard_dir))
            plan = spec.make_plan(num_events)
        self.plan = plan
        if len(plan) < num_workers:
            raise StreamError(
                f"stream too small to shard: the plan has {len(plan)} "
                f"batch(es) for {num_workers} workers; lower num_workers "
                f"(or use num_workers=0)")

        try:
            if spec.shard_dir is None:
                self._tmpdir = tempfile.mkdtemp(prefix="repro-shards-")
                export_finder = finder
                if spec.needs_finder and export_finder is None:
                    export_finder = NeighborFinder(spec.stream)
                export_graph_shards(spec.stream, self._tmpdir,
                                    finder=export_finder)
                spec = replace(spec, shard_dir=self._tmpdir)
            # Workers must never receive in-memory graph arrays by pickle.
            self.spec = replace(spec, stream=None)
            self.num_workers = num_workers
            self.prefetch_batches = max(prefetch_batches, num_workers)
            self._timeout = timeout
            self._hang_timeout = hang_timeout
            self._tasks = self._mp.Queue()
            self._results = self._mp.Queue()
            self._workers = [
                self._mp.Process(target=_worker_main,
                                 args=(self.spec, self._tasks, self._results,
                                       heartbeat_interval),
                                 daemon=True, name=f"repro-producer-{i}")
                for i in range(num_workers)]
            for worker in self._workers:
                worker.start()
            start = time.monotonic()
            self._last_alive = {w.name: start for w in self._workers}
            # Last (seq, stage) reported by each worker's heartbeat —
            # crash/hang attribution for the StreamError messages.
            self._worker_status: dict[str, tuple] = {}
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    def __iter__(self):
        if self._closed:
            raise StreamError("producer already closed")
        total = len(self.plan)
        next_to_send = 0
        next_to_yield = 0
        in_flight = 0
        holdback: dict[int, PreparedBatch] = {}
        while next_to_yield < total:
            while in_flight < self.prefetch_batches and next_to_send < total:
                self._tasks.put(self.plan.item(next_to_send))
                next_to_send += 1
                in_flight += 1
            seq, payload = self._receive()
            if seq == _ERROR:
                self.close()
                raise StreamError(
                    f"batch producer worker failed: "
                    f"{payload['worker']} (seq={payload['seq']}, "
                    f"stage={payload['stage']}):\n{payload['traceback']}")
            holdback[seq] = payload
            # A result parked out of order still counts as in flight, so
            # the prefetch window also bounds the holdback buffer (a
            # stalled head batch cannot let the tail race ahead
            # unboundedly).
            while next_to_yield in holdback:
                yield holdback.pop(next_to_yield)
                next_to_yield += 1
                in_flight -= 1

    def _receive(self):
        deadline = time.monotonic() + self._timeout
        while True:
            try:
                seq, payload = self._results.get(timeout=1.0)
            except queue_module.Empty:
                # During iteration no worker should have exited: a dead
                # worker may have taken unfinished work items with it, so
                # fail fast instead of waiting out the full timeout.
                dead = [w for w in self._workers if not w.is_alive()]
                if dead:
                    names = ", ".join(
                        f"{w.name} (exit code {w.exitcode}"
                        f"{self._status_hint(w.name)})" for w in dead)
                    self.close()
                    raise StreamError(
                        f"batch producer worker(s) died: {names}")
                # A worker can also be alive-but-frozen (stopped, stuck in
                # native code): its process shows as alive while its
                # heartbeat thread went silent.  Fail with the worker's
                # name instead of waiting out the generic stall deadline.
                now = time.monotonic()
                hung = [name for name, seen in self._last_alive.items()
                        if now - seen > self._hang_timeout]
                if hung:
                    self.close(force=True)
                    detail = ", ".join(
                        f"{name}{self._status_hint(name)}" for name in hung)
                    raise StreamError(
                        "batch producer worker(s) hung (no heartbeat for "
                        f"{self._hang_timeout:.0f}s): {detail}")
                if now >= deadline:
                    self.close()
                    raise StreamError(
                        "batch producer stalled: no result within "
                        f"{self._timeout:.0f}s")
                continue
            if seq == _HEARTBEAT:
                name, worker_seq, stage = payload
                self._worker_status[name] = (worker_seq, stage)
                self._last_alive[name] = time.monotonic()
                continue
            return seq, payload

    def _status_hint(self, name: str) -> str:
        status = self._worker_status.get(name)
        if status is None:
            return ""
        worker_seq, stage = status
        return f", last seq={worker_seq}, stage={stage}"

    # ------------------------------------------------------------------
    def close(self, force: bool = False) -> None:
        """Tear workers down; ``force=True`` skips the graceful sentinel
        round and SIGKILLs immediately — the only signal that reaches a
        frozen (e.g. stopped) process."""
        if self._closed:
            return
        self._closed = True
        try:
            if not force:
                for _ in self._workers:
                    try:
                        self._tasks.put_nowait(None)
                    except Exception:
                        break
                for worker in self._workers:
                    worker.join(timeout=5.0)
                for worker in self._workers:
                    if worker.is_alive():
                        worker.terminate()
                        worker.join(timeout=5.0)
            for worker in self._workers:
                if worker.is_alive():
                    worker.kill()
                    worker.join(timeout=5.0)
        finally:
            for q in (self._tasks, self._results):
                if q is not None:
                    q.close()
                    q.cancel_join_thread()
            if self._tmpdir is not None:
                shutil.rmtree(self._tmpdir, ignore_errors=True)

    def __del__(self):  # best-effort safety net
        try:
            self.close()
        except Exception:
            pass


def _shard_num_events(shard_dir: str) -> int:
    with open(os.path.join(shard_dir, "stream_meta.json")) as fh:
        return int(json.load(fh)["num_events"])


def make_producer(spec: ProducerSpec, plan: BatchPlan | None = None,
                  num_workers: int = 0, prefetch_batches: int = 4,
                  stream: EventStream | None = None,
                  finder: NeighborFinder | None = None,
                  fabric: str | tuple[str, int] | None = None,
                  fabric_options: dict | None = None) -> BatchProducer:
    """Build the producer a config asks for.

    ``fabric="host:port"`` → :class:`~repro.fabric.FabricProducer`
    (distributed; a coordinator listens there and remote
    ``repro fabric-worker`` processes produce); otherwise
    ``num_workers=0`` → :class:`SerialProducer` (in-process) and
    ``num_workers>=1`` → :class:`MultiprocessProducer` with that many
    spawn workers.
    """
    if fabric is not None:
        # Imported lazily: repro.fabric imports repro.stream.
        from ..fabric import FabricProducer
        return FabricProducer(spec, plan, bind=fabric,
                              prefetch_batches=max(prefetch_batches, 1),
                              stream=stream, finder=finder,
                              **(fabric_options or {}))
    if num_workers > 0 and (os.cpu_count() or 1) < 2:
        # With no spare core the spawn workers time-slice against the
        # trainer and lose to the serial path outright (see
        # BENCH_stream.json) — fall back instead of silently regressing.
        warnings.warn(
            f"num_workers={num_workers} requested but this machine has "
            "no spare core for producer processes "
            f"(os.cpu_count()={os.cpu_count()}); falling back to the "
            "in-process serial producer", RuntimeWarning, stacklevel=2)
        num_workers = 0
    if num_workers == 0:
        return SerialProducer(spec, plan, stream=stream, finder=finder)
    return MultiprocessProducer(spec, plan, num_workers=num_workers,
                                prefetch_batches=prefetch_batches,
                                finder=finder)
