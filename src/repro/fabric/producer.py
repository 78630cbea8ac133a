""":class:`FabricProducer` — the fabric behind the producer protocol.

To the trainer this is just another :class:`~repro.stream.BatchProducer`:
iterate it and bit-identical :class:`~repro.stream.PreparedBatch`es come
out in plan order.  Underneath it writes the graph its workers read
(flat ``.npy`` shards, CSR included when the spec samples — the only
code that writes them), starts a :class:`FabricCoordinator`, and
reassembles out-of-order results from however many workers happen to be
connected.

The coordinator listens on ``bind`` (TCP) for remote
``repro fabric-worker`` processes — zero at the start is fine; the run
waits (up to ``timeout``) for the first to join.  Local parallel
production is :class:`~repro.stream.ForkProducer`'s, not the fabric's.
"""

from __future__ import annotations

import queue as queue_module
import shutil
import tempfile
import time
from dataclasses import replace

from .. import obs as _obs
from ..graph.neighbor_finder import NeighborFinder
from ..stream import (BatchPlan, BatchProducer, ProducerSpec, StreamError,
                      export_graph_shards, open_stream_shards)
from .coordinator import FabricCoordinator
from .protocol import format_address, parse_address

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
        Default: loopback, ephemeral.
    prefetch_batches:
        In-flight bound: leases granted past the consumer cursor, and
        therefore also the reassembly holdback size.
    lease_timeout / heartbeat_timeout:
        Reclamation knobs, passed through to the coordinator.
    timeout:
        Consumer-side stall limit — with no completed batch for this
        long, the run aborts with a diagnostic (including whether any
        worker ever connected).
    """

    def __init__(self, spec: ProducerSpec, plan: BatchPlan | None = None, *,
                 bind: str | tuple[str, int] | None = None,
                 prefetch_batches: int = 8, lease_timeout: float = 30.0,
                 heartbeat_timeout: float = 10.0, timeout: float = 600.0,
                 finder: NeighborFinder | None = None):
        # __del__/close() must work however early __init__ fails.
        self._closed = False
        self._tmpdir: str | None = None
        self.coordinator: FabricCoordinator | None = None
        self._reassembly_hist = _obs.histogram(
            "repro_fabric_reassembly_wait_seconds", replace=True,
            help="time a finished batch waited for its predecessors")
        self._timeout = float(timeout)

        if bind is None:
            bind = ("127.0.0.1", 0)
        elif isinstance(bind, str):
            bind = parse_address(bind)
        graph = spec.stream
        if graph is None and spec.shard_dir is None:
            raise ValueError("ProducerSpec needs a stream or a shard_dir")

        try:
            if graph is None:
                graph = open_stream_shards(spec.shard_dir)
            else:
                if spec.shard_dir is None:
                    # mkdtemp → mode 0700: the export is this user's only.
                    self._tmpdir = tempfile.mkdtemp(prefix="repro-fabric-")
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
            self.coordinator = FabricCoordinator(
                self.spec, self.plan, bind,
                prefetch=max(int(prefetch_batches), 1),
                lease_timeout=lease_timeout,
                heartbeat_timeout=heartbeat_timeout).start()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The coordinator's ``(host, port)``."""
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
                if time.monotonic() - last_progress > self._timeout:
                    connected = coord.workers_connected()
                    hint = ("" if coord.workers_ever_joined else
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

    def close(self) -> None:
        """Stop the coordinator and remove the private shard directory;
        idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            if self.coordinator is not None:
                self.coordinator.close()
        finally:
            if self._tmpdir is not None:
                shutil.rmtree(self._tmpdir, ignore_errors=True)

    def __del__(self):  # best-effort safety net
        try:
            self.close()
        except Exception:
            pass

