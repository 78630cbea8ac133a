"""Elastic batch-production fabric (sockets, stdlib only): the one way
batches are produced outside the trainer process.

The streaming pipeline made batch production a pure function of
``(graph, work item)`` — :mod:`repro.fabric` turns that purity into
distribution.  A :class:`FabricCoordinator` owns the
:class:`~repro.stream.BatchPlan` and leases work items to
:class:`FabricWorker` processes — local ones over an ``AF_UNIX`` socket
(``num_workers``), remote ones over TCP (``fabric=host:port``) — which
mount the exported graph shards (flat ``.npy`` files, memory-mapped) and
stream :class:`~repro.stream.PreparedBatch`es back.  Workers are elastic and
crash-safe: leases carry deadlines, dead or slow workers' items are
reclaimed and re-leased (re-execution is bit-identical), and new
workers join mid-run after a fingerprint handshake.

:class:`FabricProducer` packages all of this behind the standard
producer protocol, so trainers cannot tell the fabric from the serial
producer — except by wall-clock.
"""

from .coordinator import FabricCoordinator
from .ledger import Lease, LeaseLedger
from .producer import FabricProducer
from .protocol import (PROTOCOL_VERSION, FabricError, FrameDecoder,
                       encode_frame, format_address, parse_address,
                       plan_fingerprint, recv_frame, send_frame)
from .worker import FabricWorker

__all__ = [
    "FabricCoordinator", "FabricProducer", "FabricWorker",
    "Lease", "LeaseLedger",
    "PROTOCOL_VERSION", "FabricError", "FrameDecoder",
    "encode_frame", "format_address", "parse_address",
    "plan_fingerprint", "recv_frame", "send_frame",
]
