"""Wire protocol of the batch-production fabric.

Everything on the wire is a **length-prefixed frame**: an 8-byte
big-endian length followed by a pickled payload dict with a ``"type"``
key.  Frames are unpickled *before* a peer has identified itself, so a
listening address is a trust boundary.  Local production (the forked
children of ``num_workers``) opens no socket at all; a TCP port exists
only when the user asks for one (``fabric=host:port``) — inside one
trusted training cluster, the same boundary as mounting the shard
directory.  Do not expose a coordinator port to untrusted networks.

Message flow::

    worker                         coordinator
      |---- HELLO {fingerprint} ------>|   version + shard identity
      |<--- WELCOME {spec, plan} ------|   or REJECT {reason}
      |<--- LEASE {item, deadline} ----|   up to `capacity` outstanding
      |---- RESULT {seq, batch} ------>|   completes (dedup'd) a lease
      |---- HEARTBEAT ---------------->|   liveness (background thread)
      |---- ERROR {traceback} -------->|   production failed; run aborts
      |<--- SHUTDOWN ------------------|   plan complete / producer closed

A worker leaves on SHUTDOWN; one whose socket drops before that is
dropped by the coordinator and its leases are re-leased.

Observability riders (all optional, ignored by peers that predate
them): when coordinator-side tracing is enabled a LEASE carries a
``trace`` context (``{"trace", "span"}`` ids from
:func:`repro.obs.current_context`), the matching RESULT carries back a
``span`` record of the worker-side production
(:func:`repro.obs.remote_span_record`), and an ERROR carries ``seq``
and ``last_span`` so the consumer's :class:`~repro.stream.StreamError`
can attribute the crash without coordinator logs.

The handshake carries a **fingerprint** so a worker that mounted the
wrong shard directory (or an out-of-date export) is rejected instead of
silently producing batches from a different graph:
:func:`~repro.stream.shards.shard_fingerprint` digests the mounted
files, and :func:`plan_fingerprint` folds in the batch plan and every
sampling-relevant :class:`~repro.stream.ProducerSpec` field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import socket
import struct

import numpy as np

from ..stream import BatchPlan, ProducerSpec, StreamError

__all__ = ["PROTOCOL_VERSION", "FabricError",
           "HELLO", "WELCOME", "REJECT", "LEASE", "RESULT", "HEARTBEAT",
           "ERROR", "SHUTDOWN",
           "encode_frame", "send_frame", "recv_frame", "FrameDecoder",
           "plan_fingerprint", "parse_address", "format_address"]

PROTOCOL_VERSION = 1

# Frames larger than this indicate a corrupted length prefix (or a
# non-fabric peer); batches are a few MB at most.
MAX_FRAME_BYTES = 1 << 31

_LENGTH = struct.Struct("!Q")

# Message types.
HELLO = "hello"
WELCOME = "welcome"
REJECT = "reject"
LEASE = "lease"
RESULT = "result"
HEARTBEAT = "heartbeat"
ERROR = "error"
SHUTDOWN = "shutdown"


class FabricError(StreamError):
    """Fabric-specific failure (handshake rejected, protocol violation,
    coordinator unreachable).  Subclasses :class:`StreamError` so CLI
    error handling treats both pipelines uniformly."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------

def encode_frame(message: dict) -> bytes:
    """Serialise one message to its on-wire bytes (prefix + pickle)."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _LENGTH.pack(len(payload)) + payload


def send_frame(sock: socket.socket, message: dict) -> None:
    """Blocking send of one frame (used by workers; the coordinator
    writes through its non-blocking output buffers instead)."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; ``None`` on clean EOF at a frame
    boundary, :class:`FabricError` on EOF mid-frame."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count:
                return None
            raise FabricError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Blocking receive of one frame; ``None`` on clean EOF."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FabricError(f"frame length {length} exceeds limit "
                          f"({MAX_FRAME_BYTES}); not a fabric peer?")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise FabricError("connection closed mid-frame")
    return pickle.loads(payload)


class FrameDecoder:
    """Incremental decoder for the coordinator's non-blocking reads.

    ``feed(data)`` buffers bytes and returns every complete message they
    finish; partial frames wait for the next read.
    """

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        self._buffer.extend(data)
        messages = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return messages
            (length,) = _LENGTH.unpack(self._buffer[:_LENGTH.size])
            if length > MAX_FRAME_BYTES:
                raise FabricError(f"frame length {length} exceeds limit "
                                  f"({MAX_FRAME_BYTES}); not a fabric peer?")
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return messages
            messages.append(pickle.loads(bytes(
                self._buffer[_LENGTH.size:end])))
            del self._buffer[:end]


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------

def plan_fingerprint(spec: ProducerSpec, plan: BatchPlan,
                     shard_fingerprint: str) -> str:
    """Digest of everything that must agree for re-execution to be
    bit-identical: plan coordinates, sampling-relevant spec fields and
    the mounted graph's shard fingerprint.  Graph *location* fields
    (``stream``/``shard_dir``/``mmap``) are excluded — a worker mounting
    the same export at a different path is the same plan.
    """
    digest = hashlib.sha256()
    digest.update(f"v{PROTOCOL_VERSION}|plan:{plan.num_events},"
                  f"{plan.batch_size},{plan.epochs},{plan.seed}|".encode())
    for field in dataclasses.fields(spec):
        if field.name in ("stream", "shard_dir", "mmap"):
            continue
        value = getattr(spec, field.name)
        if isinstance(value, np.ndarray):
            value = hashlib.sha256(
                np.ascontiguousarray(value).tobytes()).hexdigest()
        digest.update(f"{field.name}={value!r}|".encode())
    digest.update(shard_fingerprint.encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# addresses
# ----------------------------------------------------------------------

def parse_address(text: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; the host defaults to
    ``127.0.0.1`` when omitted (``":9000"``)."""
    host, sep, port = text.rpartition(":")
    if not sep:
        raise FabricError(f"fabric address {text!r} must look like "
                          "host:port (e.g. 127.0.0.1:9000)")
    try:
        port_num = int(port)
    except ValueError as exc:
        raise FabricError(f"fabric address {text!r} has a non-integer "
                          "port") from exc
    if not 0 <= port_num <= 65535:
        raise FabricError(f"fabric port {port_num} out of range")
    return host or "127.0.0.1", port_num


def format_address(address: tuple[str, int]) -> str:
    """``(host, port)`` → ``"host:port"``."""
    return f"{address[0]}:{address[1]}"
