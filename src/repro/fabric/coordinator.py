"""The fabric coordinator: owns the plan, leases work, reassembles results.

One background thread runs a :mod:`selectors` loop over a listening
socket and every worker connection — pure stdlib, non-blocking, no
per-worker threads.  Each tick it

1. accepts new workers and handshakes them (protocol version + plan
   fingerprint; mismatches are rejected with a reason),
2. reads frames: results complete leases (late duplicates are dropped
   by the :class:`~repro.fabric.ledger.LeaseLedger`), heartbeats refresh
   worker liveness, errors abort the run,
3. reclaims leases whose deadline passed and drops workers whose
   heartbeats stopped (their leases re-queue for someone else),
4. grants fresh leases round-robin to workers with free capacity,
   respecting the consumer's prefetch window.

The consumer side (:class:`~repro.fabric.producer.FabricProducer`)
drains :attr:`results` and calls :meth:`advance` per yielded batch,
which slides the grant window — the same bounded-prefetch backpressure
the in-process producers enforce.
"""

from __future__ import annotations

import queue
import selectors
import socket
import threading
import time
import traceback
from dataclasses import replace

from .. import obs as _obs
from ..stream import BatchPlan, ProducerSpec, shard_fingerprint
from .ledger import LeaseLedger
from .protocol import (ERROR, HEARTBEAT, HELLO, LEASE, PROTOCOL_VERSION,
                       REJECT, RESULT, SHUTDOWN, WELCOME, FabricError,
                       FrameDecoder, encode_frame, plan_fingerprint)

__all__ = ["FabricCoordinator"]


class _Connection:
    """Per-socket state: frame decoder, output buffer, handshake status."""

    def __init__(self, sock: socket.socket, addr, now: float):
        self.sock = sock
        self.addr = addr
        self.decoder = FrameDecoder()
        self.outbuf = bytearray()
        self.name: str | None = None
        self.active = False      # handshake accepted
        self.capacity = 1
        self.last_seen = now
        self.closing = False     # flush outbuf, then drop (REJECT path)


class FabricCoordinator:
    """Serve one :class:`BatchPlan` to an elastic fleet of workers.

    Parameters
    ----------
    spec:
        The production recipe; must carry ``shard_dir`` (workers receive
        this spec minus graph-location fields and mount their own copy
        of the shards).
    plan:
        The work-item enumeration all parties share.
    bind:
        ``(host, port)`` to listen on over TCP — port 0 picks an
        ephemeral port (read :attr:`address` for the bound one).
    prefetch:
        Maximum work items past the consumer cursor that may be leased —
        bounds both in-flight production and the reassembly holdback.
    lease_timeout:
        Seconds a worker owes a leased item before it is speculatively
        re-leased elsewhere (late duplicates dedup).
    heartbeat_timeout:
        Seconds of silence after which a worker is declared dead and its
        leases reclaimed immediately.
    """

    _TICK = 0.05

    def __init__(self, spec: ProducerSpec, plan: BatchPlan,
                 bind: tuple[str, int] = ("127.0.0.1", 0), *,
                 prefetch: int = 8, lease_timeout: float = 30.0,
                 heartbeat_timeout: float = 10.0):
        if spec.shard_dir is None:
            raise FabricError("FabricCoordinator needs spec.shard_dir: "
                              "workers mount the exported graph shards")
        self.spec = replace(spec, stream=None)
        self.plan = plan
        self.lease_timeout = float(lease_timeout)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.shard_fp = shard_fingerprint(spec.shard_dir)
        self.fingerprint = plan_fingerprint(self.spec, plan, self.shard_fp)
        self.ledger = LeaseLedger(plan, window=max(int(prefetch), 1))
        self.results: queue.Queue = queue.Queue()
        self.error: tuple[str, str] | None = None
        # Crash attribution riding along with `error`: the failing seq
        # and the worker's last span name (kept separate so `who, tb =
        # coord.error` call sites stay valid).
        self.error_context: dict | None = None
        self._lease_hist = _obs.histogram(
            "repro_fabric_lease_seconds",
            help="lease grant-to-result latency", replace=True)

        self._lock = threading.Lock()
        self._shutdown = threading.Event()
        self._thread: threading.Thread | None = None
        self._connections: dict[socket.socket, _Connection] = {}
        self._names_used: set[str] = set()
        # Worker membership; the producer's stats() reports these.
        self.counters = _obs.owned_counters(
            "repro_fabric_workers", ("joined", "rejected", "left"),
            help="fabric workers {} count")

        self._selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEADDR, 1)
            self._listener.bind(bind)
            self._listener.listen(128)
            self._listener.setblocking(False)
            self._selector.register(self._listener, selectors.EVENT_READ,
                                    data=None)
        except OSError:
            self._listener.close()
            raise
        self.address: tuple[str, int] = self._listener.getsockname()[:2]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FabricCoordinator":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-fabric-coordinator")
        self._thread.start()
        return self

    def close(self, timeout: float = 3.0) -> None:
        """Broadcast SHUTDOWN, stop the loop, close every socket."""
        self._shutdown.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        else:  # never started: release the listener directly
            self._close_listener()

    def _close_listener(self) -> None:
        self._selector.close()
        self._listener.close()

    # consumer-side API ------------------------------------------------
    def advance(self, seq: int) -> None:
        with self._lock:
            self.ledger.advance(seq)

    @property
    def finished(self) -> bool:
        with self._lock:
            return self.ledger.all_done

    @property
    def thread_alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def workers_connected(self) -> int:
        with self._lock:
            return sum(1 for c in self._connections.values() if c.active)

    @property
    def workers_ever_joined(self) -> int:
        return int(self.counters["joined"])

    # ------------------------------------------------------------------
    # selector loop (background thread)
    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            while not self._shutdown.is_set():
                for key, mask in self._selector.select(self._TICK):
                    if key.data is None:
                        self._accept()
                        continue
                    conn: _Connection = key.data
                    if mask & selectors.EVENT_READ:
                        self._read(conn)
                    if (mask & selectors.EVENT_WRITE
                            and conn.sock in self._connections):
                        self._write(conn)
                now = time.monotonic()
                self._reap(now)
                self._grant_all(now)
                with self._lock:
                    if self.ledger.all_done:
                        break  # plan complete: release the workers
        except BaseException:
            if self.error is None:
                self.error = ("coordinator", traceback.format_exc())
        finally:
            self._broadcast_shutdown()
            for conn in list(self._connections.values()):
                self._drop(conn, reclaim=False)
            self._close_listener()

    def _broadcast_shutdown(self) -> None:
        """Best-effort SHUTDOWN so workers exit instead of timing out."""
        frame = encode_frame({"type": SHUTDOWN})
        for conn in self._connections.values():
            try:
                conn.sock.setblocking(True)
                conn.sock.settimeout(0.5)
                conn.sock.sendall(bytes(conn.outbuf) + frame)
            except OSError:
                pass

    # connection handling ----------------------------------------------
    def _accept(self) -> None:
        try:
            sock, addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        conn = _Connection(sock, addr, time.monotonic())
        with self._lock:
            self._connections[sock] = conn
        self._selector.register(sock, selectors.EVENT_READ, data=conn)

    def _drop(self, conn: _Connection, reclaim: bool = True) -> None:
        with self._lock:
            self._connections.pop(conn.sock, None)
            if conn.active:
                self.counters["left"].inc()
                if reclaim:
                    self.ledger.reclaim_worker(conn.name, time.monotonic())
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()

    def _read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(1 << 20)
        except BlockingIOError:
            return
        except OSError:
            self._drop(conn)
            return
        if not data:
            self._drop(conn)
            return
        try:
            messages = conn.decoder.feed(data)
        except Exception:
            self._drop(conn)
            return
        for message in messages:
            try:
                self._handle(conn, message)
            except (AttributeError, KeyError, TypeError, ValueError):
                # Not a message dict, or one missing a field its type
                # needs: drop the peer like one whose bytes do not decode.
                if conn.sock in self._connections:
                    self._drop(conn)
                return
            if conn.sock not in self._connections:
                return

    def _write(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.outbuf)
            del conn.outbuf[:sent]
        except BlockingIOError:
            return
        except OSError:
            self._drop(conn)
            return
        if not conn.outbuf:
            if conn.closing:
                self._drop(conn, reclaim=False)
            else:
                self._selector.modify(conn.sock, selectors.EVENT_READ,
                                      data=conn)

    def _send(self, conn: _Connection, message: dict) -> None:
        was_empty = not conn.outbuf
        conn.outbuf.extend(encode_frame(message))
        if was_empty:
            self._selector.modify(
                conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE,
                data=conn)
        self._write(conn)  # opportunistic immediate flush

    # message handling -------------------------------------------------
    def _handle(self, conn: _Connection, message: dict) -> None:
        kind = message.get("type")
        conn.last_seen = time.monotonic()
        if kind == HELLO:
            self._handshake(conn, message)
        elif kind == RESULT and conn.active:
            # Read every field before the ledger marks the item done.
            seq, batch = int(message["seq"]), message["batch"]
            if not 0 <= seq < self.ledger.total:
                raise ValueError(f"result for seq {seq} outside the plan")
            now = time.monotonic()
            with self._lock:
                lease = self.ledger.lease_for(seq)
                fresh = self.ledger.complete(seq, conn.name)
            if fresh:
                if lease is not None:
                    self._lease_hist.observe(now - lease.granted_at)
                _obs.record_remote(message.get("span"))
                self.results.put((seq, batch, now))
        elif kind == HEARTBEAT:
            pass  # last_seen already refreshed above
        elif kind == ERROR:
            if self.error is None:
                self.error = (conn.name or str(conn.addr),
                              message.get("traceback", "<no traceback>"))
                self.error_context = {"seq": message.get("seq"),
                                      "last_span": message.get("last_span")}
            self._shutdown.set()

    def _handshake(self, conn: _Connection, message: dict) -> None:
        version = message.get("version")
        if version != PROTOCOL_VERSION:
            self._reject(conn, f"protocol version mismatch: worker speaks "
                               f"{version}, coordinator {PROTOCOL_VERSION}")
            return
        worker_fp = message.get("shard_fingerprint")
        if worker_fp != self.shard_fp:
            self._reject(conn, "plan fingerprint mismatch: the worker's "
                               "mounted shards are not this run's graph "
                               f"(worker {str(worker_fp)[:12]}…, "
                               f"coordinator {self.shard_fp[:12]}…)")
            return
        capacity = max(1, int(message.get("capacity", 1)))
        base = str(message.get("name") or f"worker-{conn.addr[0]}")
        name, suffix = base, 2
        with self._lock:
            while name in self._names_used:
                name = f"{base}#{suffix}"
                suffix += 1
            self._names_used.add(name)
            self.counters["joined"].inc()
        conn.name = name
        conn.capacity = capacity
        conn.active = True
        self._send(conn, {
            "type": WELCOME,
            "name": name,
            "spec": replace(self.spec, shard_dir=None),
            "plan": {"num_events": self.plan.num_events,
                     "batch_size": self.plan.batch_size,
                     "epochs": self.plan.epochs,
                     "seed": self.plan.seed},
            "fingerprint": self.fingerprint,
            "lease_timeout": self.lease_timeout,
        })

    def _reject(self, conn: _Connection, reason: str) -> None:
        with self._lock:
            self.counters["rejected"].inc()
        conn.closing = True
        self._send(conn, {"type": REJECT, "reason": reason})

    # liveness + granting ----------------------------------------------
    def _reap(self, now: float) -> None:
        with self._lock:
            self.ledger.reclaim_expired(now)
        stale = []
        for conn in self._connections.values():
            if not conn.active:
                continue
            age = now - conn.last_seen
            _obs.gauge("repro_fabric_heartbeat_age_seconds",
                       labels={"worker": conn.name},
                       help="seconds since the worker was last heard "
                            "from").set(age)
            if age > self.heartbeat_timeout:
                stale.append(conn)
        for conn in stale:
            self._drop(conn)  # reclaims its leases

    def _grant_all(self, now: float) -> None:
        """Round-robin: one lease per eligible worker per pass, until
        nobody takes another item."""
        eligible = [conn for conn in self._connections.values()
                    if conn.active and not conn.closing]
        while True:
            granted = False
            for conn in eligible:
                if conn.sock not in self._connections:
                    continue
                with self._lock:
                    if self.ledger.outstanding(conn.name) >= conn.capacity:
                        continue
                    item = self.ledger.grant(
                        conn.name, now, self.lease_timeout,
                        # With a second worker available, steer an
                        # expired item's re-lease away from the worker
                        # that just blew its deadline on it.
                        avoid_repeat=len(eligible) > 1)
                if item is None:
                    continue
                lease_msg = {"type": LEASE, "item": item,
                             "deadline": now + self.lease_timeout}
                ctx = _obs.current_context()
                if ctx is not None:
                    # Propagate the trace context so the worker's
                    # production span links back to this run's trace.
                    lease_msg["trace"] = ctx
                self._send(conn, lease_msg)
                granted = True
            if not granted:
                return
