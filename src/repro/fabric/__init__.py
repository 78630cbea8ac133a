"""Elastic batch-production fabric (sockets, stdlib only): batches
produced on other machines.

The streaming pipeline made batch production a pure function of
``(graph, work item)`` — :mod:`repro.fabric` turns that purity into
distribution.  A :class:`FabricCoordinator` owns the
:class:`~repro.stream.BatchPlan` and leases work items over TCP
(``fabric=host:port``) to remote :class:`FabricWorker` processes
(``repro fabric-worker``), which mount the exported graph shards (flat
``.npy`` files, memory-mapped) and stream
:class:`~repro.stream.PreparedBatch`es back.  Workers are elastic and
crash-safe: leases carry deadlines, dead or slow workers' items are
reclaimed and re-leased (re-execution is bit-identical), and new
workers join mid-run after a fingerprint handshake.

:class:`FabricProducer` packages all of this behind the standard
producer protocol, so trainers cannot tell the fabric from the serial
producer — except by wall-clock.  Parallel production on the trainer's
own machine is :class:`~repro.stream.ForkProducer`'s (forked children,
no socket).
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
