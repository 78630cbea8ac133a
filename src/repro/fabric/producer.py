""":class:`FabricProducer` — the fabric behind the producer protocol.

To the trainer this is just another :class:`~repro.stream.BatchProducer`:
iterate it and bit-identical :class:`~repro.stream.PreparedBatch`es come
out in plan order.  Underneath it writes the graph its workers read
(flat ``.npy`` shards, CSR included when the spec samples — the only
code that writes them), starts a :class:`FabricCoordinator`, and
reassembles out-of-order results from however many workers happen to be
connected.

``num_workers=N`` spawns N local :class:`FabricWorker` processes on an
``AF_UNIX`` socket in a private directory — no TCP port is opened — and
supervises them: one that dies or freezes is dropped by the coordinator
and its leases re-leased; once none is left the consumer fails within
seconds, naming each.  Otherwise the coordinator listens on ``bind``
(TCP) for remote ``repro fabric-worker`` processes — zero at the start
is fine; the run waits (up to ``timeout``) for the first to join.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_module
import shutil
import socket
import tempfile
import time
from dataclasses import replace

from .. import obs as _obs
from ..graph.neighbor_finder import NeighborFinder
from ..stream import (BatchPlan, BatchProducer, ProducerSpec, StreamError,
                      export_graph_shards, open_stream_shards)
from .coordinator import FabricCoordinator
from .protocol import FabricError, format_address, parse_address
from .worker import FabricWorker

__all__ = ["FabricProducer"]


class FabricProducer(BatchProducer):
    """Batch production outside the trainer process.

    Parameters
    ----------
    spec, plan:
        As for the serial producer.  Handed a stream (``spec.stream``),
        the producer writes it into ``spec.shard_dir`` — kept after the
        run, for remote workers that mount it — or, when that is
        ``None``, into a private temporary directory removed on
        :meth:`close`.  Handed only ``spec.shard_dir``, it reads it.
    bind:
        ``"host:port"`` pair for the coordinator to listen on
        (``(host, port)`` tuples also accepted); port 0 → ephemeral.
        Default: loopback, ephemeral.  Not with ``num_workers``.
    num_workers:
        Local worker processes to spawn and supervise over an
        ``AF_UNIX`` socket; 0 → workers join over ``bind`` on their own.
    prefetch_batches:
        In-flight bound: leases granted past the consumer cursor, and
        therefore also the reassembly holdback size.
    lease_timeout / heartbeat_timeout:
        Reclamation knobs, passed through to the coordinator; local
        workers beat four times per ``heartbeat_timeout``.
    timeout:
        Consumer-side stall limit — with no completed batch for this
        long, the run aborts with a diagnostic (including whether any
        worker ever connected).
    """

    def __init__(self, spec: ProducerSpec, plan: BatchPlan | None = None, *,
                 bind: str | tuple[str, int] | None = None,
                 num_workers: int = 0,
                 prefetch_batches: int = 8, lease_timeout: float = 30.0,
                 heartbeat_timeout: float = 10.0, timeout: float = 600.0,
                 finder: NeighborFinder | None = None):
        # __del__/close() must work however early __init__ fails.
        self._closed = False
        self._tmpdir: str | None = None
        self._workers: list = []
        self.coordinator: FabricCoordinator | None = None
        self._reassembly_hist = _obs.histogram(
            "repro_fabric_reassembly_wait_seconds", replace=True,
            help="time a finished batch waited for its predecessors")
        self._timeout = float(timeout)

        if num_workers > 0:
            if bind is not None:
                raise ValueError("bind and num_workers are mutually exclusive:"
                                 " local workers use a private AF_UNIX socket")
            spawn = _local_worker_context()
        elif bind is None:
            bind = ("127.0.0.1", 0)
        elif isinstance(bind, str):
            bind = parse_address(bind)
        graph = spec.stream
        if graph is None and spec.shard_dir is None:
            raise ValueError("ProducerSpec needs a stream or a shard_dir")

        try:
            if (graph is not None and spec.shard_dir is None) \
                    or num_workers > 0:
                # mkdtemp → mode 0700: the temporary shard export and
                # the local workers' socket are this user's only.
                self._tmpdir = tempfile.mkdtemp(prefix="repro-fabric-")
            if graph is None:
                graph = open_stream_shards(spec.shard_dir)
            else:
                if not spec.needs_finder:
                    finder = None
                elif finder is None:
                    finder = NeighborFinder(graph)
                spec = replace(spec, shard_dir=export_graph_shards(
                    graph, spec.shard_dir or self._tmpdir, finder=finder))
            self.plan = plan if plan is not None \
                else spec.make_plan(graph.num_events)
            # Workers must never receive in-memory graph arrays by pickle.
            self.spec = replace(spec, stream=None)
            if num_workers > 0:
                bind = os.path.join(self._tmpdir, "coordinator.sock")
            self.coordinator = FabricCoordinator(
                self.spec, self.plan, bind,
                prefetch=max(int(prefetch_batches), 1),
                lease_timeout=lease_timeout,
                heartbeat_timeout=heartbeat_timeout).start()
            self._spawned_at = time.monotonic()
            for i in range(num_workers):
                worker = FabricWorker(
                    bind, self.spec.shard_dir, name=f"local-{i}",
                    heartbeat_interval=min(1.0, heartbeat_timeout / 4))
                process = spawn.Process(target=_serve_local, args=(worker,),
                                        daemon=True, name=worker.name)
                process.start()
                self._workers.append(process)
        except BaseException:
            self.close(grace=0.0)
            raise

    # ------------------------------------------------------------------
    @property
    def address(self) -> str | tuple[str, int]:
        """``(host, port)``, or the socket path when workers are local."""
        return self.coordinator.address

    @property
    def shard_dir(self) -> str:
        return self.spec.shard_dir

    def worker_mount_hint(self) -> str:
        """The command remote workers run to join this producer."""
        return (f"repro fabric-worker --connect "
                f"{format_address(self.address)} --shards {self.shard_dir}")

    # ------------------------------------------------------------------
    def __iter__(self):
        if self._closed:
            raise StreamError("producer already closed")
        coord = self.coordinator
        total = len(self.plan)
        next_to_yield = 0
        holdback: dict[int, tuple] = {}
        last_progress = time.monotonic()
        while next_to_yield < total:
            self._check_failed()
            try:
                seq, batch, arrived = coord.results.get(timeout=0.5)
            except queue_module.Empty:
                self._check_failed()
                self._check_local_workers()
                if time.monotonic() - last_progress > self._timeout:
                    connected = coord.workers_connected()
                    ever = coord.workers_ever_joined or self._workers
                    hint = ("" if ever else
                            "; no worker has joined — start one with: "
                            + self.worker_mount_hint())
                    self.close()
                    raise StreamError(
                        "fabric stalled: no completed batch within "
                        f"{self._timeout:.0f}s ({connected} worker(s) "
                        f"connected){hint}")
                continue
            holdback[seq] = (batch, arrived)
            while next_to_yield in holdback:
                batch, arrived = holdback.pop(next_to_yield)
                self._reassembly_hist.observe(time.monotonic() - arrived)
                coord.advance(next_to_yield)
                yield batch
                next_to_yield += 1
                last_progress = time.monotonic()

    def _check_failed(self) -> None:
        coord = self.coordinator
        if coord.error is not None:
            who, tb = coord.error
            context = ""
            ctx = coord.error_context
            if ctx and (ctx.get("seq") is not None or ctx.get("last_span")):
                context = (f" (lease seq={ctx.get('seq')}, "
                           f"last span={ctx.get('last_span')})")
            self.close()
            raise StreamError(f"fabric worker {who!r} failed{context}:\n{tb}")
        if not coord.thread_alive and not coord.finished:
            self.close()
            raise StreamError("fabric coordinator thread died")

    def _check_local_workers(self) -> None:
        """Fail by name once every local worker is dead or silent; while
        one serves, the coordinator drops the dead (socket EOF) and the
        frozen (``heartbeat_timeout``) and re-leases their items."""
        coord = self.coordinator
        if not self._workers or coord.workers_connected() or coord.finished:
            return
        now = time.monotonic()
        verdicts = []
        for process in self._workers:
            seen, seq = coord.trail.get(process.name, (None, None))
            silent = now - (seen or self._spawned_at)
            if process.exitcode is not None:
                verdict = f"exit code {process.exitcode}"
            elif silent > coord.heartbeat_timeout:
                verdict = f"alive but silent for {silent:.1f}s"
            else:
                return  # still starting up
            verdicts.append(f"{process.name} ({verdict}, "
                            f"last leased seq={seq})")
        self.close(grace=0.0)
        raise StreamError("every local fabric worker is gone: "
                          + ", ".join(verdicts))

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Plan progress, lease and membership counts, the reclaim log,
        each connected worker's load, and the reassembly wait."""
        coord = self.coordinator
        if coord is None:
            return {}
        with coord._lock:
            ledger = coord.ledger
            now = time.monotonic()
            stats = {
                "address": coord.address,
                "fingerprint": coord.fingerprint,
                "total": ledger.total,
                "done": ledger.done_count,
                **{name: int(c) for name, c in ledger.counters.items()},
                "reclaim_log": list(ledger.reclaim_log),
                **{f"workers_{name}": int(c)
                   for name, c in coord.counters.items()},
                "workers": {
                    c.name: {"outstanding": ledger.outstanding(c.name),
                             "last_seen_age": now - c.last_seen}
                    for c in coord._connections.values() if c.active},
            }
        waits = self._reassembly_hist
        if waits.count:
            stats["reassembly_wait_mean_s"] = waits.sum / waits.count
            stats["reassembly_wait_p99_s"] = waits.summary()["p99"]
        return stats

    def close(self, grace: float = 3.0) -> None:
        """Stop the coordinator, reap local workers (``grace`` seconds to
        exit on SHUTDOWN, then SIGTERM, then SIGKILL — the only signal a
        stopped process takes), remove the private directory; idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            if self.coordinator is not None:
                self.coordinator.close()
            for wait, escalate in ((grace, None), (1.0, "terminate"),
                                   (5.0, "kill")):
                alive = [p for p in self._workers if p.is_alive()]
                if escalate is not None:
                    for process in alive:
                        getattr(process, escalate)()
                deadline = time.monotonic() + wait
                for process in alive:
                    process.join(max(deadline - time.monotonic(), 0.0))
        finally:
            if self._tmpdir is not None:
                shutil.rmtree(self._tmpdir, ignore_errors=True)

    def __del__(self):  # best-effort safety net
        try:
            self.close()
        except Exception:
            pass


def _serve_local(worker: FabricWorker) -> None:
    """Entry point of a spawned local worker process."""
    try:
        worker.run()
    except FabricError as exc:
        # Socket already removed: the run ended before this worker was up.
        if os.path.exists(worker.address):
            raise SystemExit(f"[fabric worker {worker.name}] {exc}")


def _local_worker_context():
    """The ``spawn`` context local workers start from (a fork would
    copy the trainer's threads' locks), if the platform can run them."""
    if hasattr(socket, "AF_UNIX") and "spawn" in mp.get_all_start_methods():
        return mp.get_context("spawn")
    raise StreamError(  # pragma: no cover - platform-specific
        "local fabric workers need AF_UNIX sockets and the 'spawn' start "
        "method, which this platform does not provide; run with "
        "num_workers=0")
