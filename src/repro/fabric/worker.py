"""The fabric worker: mount shards, lease work, stream results back.

A worker is deliberately dumb — it holds no plan and no progress state.
It connects, proves (via shard fingerprint) that its mounted shard
directory is the coordinator's graph, receives the production spec over
the wire, and then loops: ``LEASE in → produce_batch → RESULT out``.
Because production is a pure function of ``(graph, work item)``, a
worker can crash, rejoin, or duplicate another worker's item without
affecting what the trainer sees.

Every worker — a ``repro fabric-worker`` process, or a
:class:`FabricWorker` run in process by a test — opens the flat
memory-mapped shards every other reader uses
(:class:`~repro.stream.SamplingContext` over the mounted directory).

This module also declares the ``repro fabric-worker`` flags
(:func:`add_worker_arguments`) and runs a worker from them
(:func:`worker_from_args`).
"""

from __future__ import annotations

import argparse
import os
import socket
import threading
import time
import traceback
from dataclasses import replace

from .. import obs as _obs
from ..stream import (SamplingContext, open_graph_shards, produce_batch,
                      shard_fingerprint)
from .protocol import (ERROR, HEARTBEAT, HELLO, LEASE, PROTOCOL_VERSION,
                       REJECT, RESULT, SHUTDOWN, WELCOME, FabricError,
                       format_address, parse_address, recv_frame,
                       send_frame)

__all__ = ["FabricWorker", "add_worker_arguments", "worker_from_args"]


class FabricWorker:
    """One elastic production worker.

    Parameters
    ----------
    address:
        ``(host, port)`` of the coordinator.
    shard_dir:
        Local mount of the run's exported graph shards.  Its fingerprint
        is checked against the coordinator's during the handshake.
    name:
        Wire identity; defaults to ``hostname-pid``.  The coordinator
        de-duplicates clashes.
    capacity:
        Leases this worker may hold at once (pipeline depth — while one
        item is in production the next is already on the wire).
    mmap:
        Memory-map the shards (default) instead of loading them.
    heartbeat_interval:
        Seconds between liveness frames (a daemon thread sends them so a
        long ``produce_batch`` does not look like a death).
    retry_for:
        Keep retrying the initial connect for this many seconds — lets a
        worker start *before* its coordinator (or outlive a restart).
    """

    def __init__(self, address: tuple[str, int], shard_dir: str, *,
                 name: str | None = None, capacity: int = 2,
                 mmap: bool = True, heartbeat_interval: float = 1.0,
                 retry_for: float = 0.0):
        self.address = address
        self.shard_dir = shard_dir
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.capacity = max(1, int(capacity))
        self.mmap = mmap
        self.heartbeat_interval = float(heartbeat_interval)
        self.retry_for = float(retry_for)

    # ------------------------------------------------------------------
    def run(self, max_results: int | None = None) -> dict:
        """Serve until the coordinator shuts down; return run stats.

        ``max_results`` aborts after that many results, before the
        coordinator's SHUTDOWN — the socket just drops, exactly like a
        crash.  The chaos tests use it to exercise lease reclamation.
        """
        sock = self._connect()
        produced = 0
        graceful = False
        stop = threading.Event()
        send_lock = threading.Lock()
        try:
            # Mounted after the connect, so a worker may start before its
            # coordinator writes the shards; a damaged mount is a
            # StreamError naming the file, before any handshake.
            stream, finder = open_graph_shards(self.shard_dir,
                                               mmap=self.mmap)
            send_frame(sock, {"type": HELLO,
                              "version": PROTOCOL_VERSION,
                              "name": self.name,
                              "capacity": self.capacity,
                              "shard_fingerprint":
                                  shard_fingerprint(self.shard_dir)})
            reply = recv_frame(sock)
            if reply is None:
                raise FabricError("coordinator closed during handshake")
            if reply.get("type") == REJECT:
                raise FabricError("coordinator rejected worker: "
                                  + reply.get("reason", "<no reason>"))
            if reply.get("type") != WELCOME:
                raise FabricError(f"unexpected handshake reply: {reply!r}")
            self.name = reply.get("name", self.name)
            spec = replace(reply["spec"], stream=None,
                           shard_dir=self.shard_dir, mmap=self.mmap)
            ctx = SamplingContext(spec, stream=stream, finder=finder)

            heartbeat = threading.Thread(
                target=self._heartbeat_loop, args=(sock, stop, send_lock),
                daemon=True, name=f"repro-fabric-heartbeat-{self.name}")
            heartbeat.start()

            last_seq = None
            while True:
                message = recv_frame(sock)
                if message is None or message.get("type") == SHUTDOWN:
                    graceful = True
                    break
                if message.get("type") != LEASE:
                    continue
                item = message["item"]
                last_seq = item.seq
                trace_ctx = message.get("trace")
                try:
                    wall0 = time.perf_counter()
                    cpu0 = time.process_time()
                    batch = produce_batch(ctx, item).materialize()
                    wall = time.perf_counter() - wall0
                    cpu = time.process_time() - cpu0
                except BaseException:
                    with send_lock:
                        send_frame(sock, {"type": ERROR,
                                          "worker": self.name,
                                          "seq": last_seq,
                                          "last_span": "fabric.produce",
                                          "traceback":
                                              traceback.format_exc()})
                    raise
                result = {"type": RESULT, "seq": item.seq, "batch": batch}
                if trace_ctx is not None:
                    # The coordinator propagated its trace context; ship
                    # back a span record of this item's production (the
                    # worker's own tracing stays off).
                    result["span"] = _obs.remote_span_record(
                        trace_ctx, "fabric.produce", wall, cpu,
                        worker=self.name, seq=int(item.seq))
                with send_lock:
                    send_frame(sock, result)
                produced += 1
                if max_results is not None and produced >= max_results:
                    break  # before SHUTDOWN: simulate a crash
        finally:
            stop.set()
            try:
                sock.close()
            except OSError:
                pass
        return {"name": self.name, "produced": produced,
                "graceful": graceful}

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        deadline = time.monotonic() + self.retry_for
        while True:
            try:
                return self._open_socket()
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise FabricError(
                        "could not connect to fabric coordinator at "
                        f"{format_address(self.address)}: {exc}") from exc
                time.sleep(0.2)

    def _open_socket(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=10.0)
        sock.settimeout(None)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        return sock

    def _heartbeat_loop(self, sock: socket.socket, stop: threading.Event,
                        send_lock: threading.Lock) -> None:
        while not stop.wait(self.heartbeat_interval):
            try:
                with send_lock:
                    send_frame(sock, {"type": HEARTBEAT,
                                      "worker": self.name})
            except OSError:
                return


# ----------------------------------------------------------------------
# ``repro fabric-worker``
# ----------------------------------------------------------------------

def add_worker_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the ``repro fabric-worker`` flags on ``parser``."""
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address")
    parser.add_argument("--shards", required=True, metavar="DIR",
                        help="local mount of the run's exported graph "
                             "shards (must fingerprint-match)")
    parser.add_argument("--name", default=None,
                        help="worker identity (default: hostname-pid)")
    parser.add_argument("--capacity", type=int, default=2,
                        help="concurrent leases to hold (default: 2)")
    parser.add_argument("--no-mmap", action="store_true",
                        help="load shards into memory instead of mmap")
    parser.add_argument("--retry-for", type=float, default=30.0,
                        metavar="SECONDS",
                        help="keep retrying the connect this long "
                             "(default: 30; lets workers start first)")
    parser.add_argument("--max-results", type=int, default=None,
                        help=argparse.SUPPRESS)  # chaos/bench hook
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the exit summary")


def worker_from_args(args: argparse.Namespace) -> int:
    """``repro fabric-worker``: serve one worker until the coordinator
    shuts down, given the parsed flags of :func:`add_worker_arguments`."""
    worker = FabricWorker(parse_address(args.connect), args.shards,
                          name=args.name, capacity=args.capacity,
                          mmap=not args.no_mmap, retry_for=args.retry_for)
    stats = worker.run(max_results=args.max_results)
    if not args.quiet:
        print(f"[fabric-worker {stats['name']}] produced "
              f"{stats['produced']} batch(es)")
    return 0
