"""Lease bookkeeping: which worker owes which work item, until when.

The ledger is the coordinator's single source of truth about progress.
Every work item moves ``pending → leased → done``; two transitions run
backwards:

* **reclaim** — a lease whose worker died, left, or blew its deadline
  goes back to ``pending`` and will be re-leased to the next free
  worker.  Re-execution is safe because batch production is a pure
  function of ``(graph, work item)`` under coordinate-derived seeds.
* **dedup** — when a slow-but-alive worker finishes an item that was
  already reclaimed and completed elsewhere, the late result is counted
  and dropped; the consumer sees every ``seq`` exactly once.

Leases are granted strictly in ``seq`` order within a sliding window of
``window`` items past the consumer cursor, so the coordinator enforces
the same bounded-prefetch backpressure as the in-process producers and
the consumer-side holdback buffer stays bounded.

The ledger itself is not thread-safe; the coordinator serialises access
under its own lock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .. import obs as _obs
from ..stream import BatchPlan, WorkItem

__all__ = ["Lease", "LeaseLedger"]


@dataclass
class Lease:
    """One outstanding grant: who owes the item and until when."""

    item: WorkItem
    worker: str
    deadline: float
    granted_at: float


class LeaseLedger:
    """Pending-heap + lease-table + done-set over one :class:`BatchPlan`."""

    def __init__(self, plan: BatchPlan, window: int):
        if window < 1:
            raise ValueError("lease window must be >= 1")
        self.plan = plan
        self.total = len(plan)
        self.window = window
        self.next_to_yield = 0
        self._pending: list[int] = list(range(self.total))  # already a heap
        self._leases: dict[int, Lease] = {}
        self._done: set[int] = set()
        # Who last blew the deadline on a seq — used to steer the re-lease
        # to a *different* worker when one is available, so a slow worker
        # cannot reclaim-and-hoard the same item forever.
        self._expired_holder: dict[int, str] = {}
        # Lease activity for the producer's stats() and GET /metrics.
        self.counters = _obs.owned_counters(
            "repro_fabric_leases",
            ("granted", "completed", "duplicates", "reclaimed_expired",
             "reclaimed_disconnect"),
            help="fabric lease {} count")
        # (monotonic time, reason, items) per reclaim: an event log, not
        # a metric.
        self.reclaim_log: list[tuple[float, str, int]] = []

    # ------------------------------------------------------------------
    @property
    def done_count(self) -> int:
        return len(self._done)

    @property
    def all_done(self) -> bool:
        return len(self._done) == self.total

    def pending_count(self) -> int:
        return sum(1 for seq in self._pending if seq not in self._done)

    def outstanding(self, worker: str) -> int:
        return sum(1 for lease in self._leases.values()
                   if lease.worker == worker)

    def lease_for(self, seq: int) -> Lease | None:
        return self._leases.get(seq)

    # ------------------------------------------------------------------
    def advance(self, seq: int) -> None:
        """Consumer yielded ``seq``; slide the grant window forward."""
        self.next_to_yield = max(self.next_to_yield, seq + 1)

    def grant(self, worker: str, now: float, lease_timeout: float,
              avoid_repeat: bool = False) -> WorkItem | None:
        """Lease the lowest pending item inside the window, or ``None``.

        The deadline is fixed at grant time — heartbeats keep a *worker*
        alive but do not extend its *leases*, so a pathologically slow
        item is eventually re-leased to someone else (speculatively; the
        duplicate completion dedups).

        With ``avoid_repeat`` (set by the coordinator whenever another
        worker is connected) an item is withheld from the worker whose
        lease on it just expired, so the re-lease lands elsewhere.
        """
        while self._pending and self._pending[0] in self._done:
            heapq.heappop(self._pending)  # lazily dropped duplicates
        if not self._pending:
            return None
        seq = self._pending[0]
        if seq >= self.next_to_yield + self.window:
            return None
        if avoid_repeat and self._expired_holder.get(seq) == worker:
            return None
        heapq.heappop(self._pending)
        self._expired_holder.pop(seq, None)
        item = self.plan.item(seq)
        self._leases[seq] = Lease(item=item, worker=worker,
                                  deadline=now + lease_timeout,
                                  granted_at=now)
        self.counters["granted"].inc()
        return item

    def complete(self, seq: int, worker: str) -> bool:
        """Record a finished item; ``False`` when it was already done
        (a reclaimed lease finishing late — the result must be dropped).
        """
        self._leases.pop(seq, None)
        if seq in self._done:
            self.counters["duplicates"].inc()
            return False
        self._done.add(seq)
        self.counters["completed"].inc()
        return True

    # ------------------------------------------------------------------
    def _reclaim(self, seqs: list[int], now: float, reason: str) -> list[int]:
        for seq in seqs:
            self._leases.pop(seq, None)
            if seq not in self._done:
                heapq.heappush(self._pending, seq)
        if seqs:
            self.reclaim_log.append((now, reason, len(seqs)))
        return seqs

    def reclaim_expired(self, now: float) -> list[int]:
        """Re-queue every lease past its deadline (slow-worker path)."""
        expired = [seq for seq, lease in self._leases.items()
                   if lease.deadline <= now]
        for seq in expired:
            self._expired_holder[seq] = self._leases[seq].worker
        self.counters["reclaimed_expired"].inc(len(expired))
        return self._reclaim(expired, now, "expired")

    def reclaim_worker(self, worker: str, now: float) -> list[int]:
        """Re-queue every lease a departed worker held (crash path)."""
        held = [seq for seq, lease in self._leases.items()
                if lease.worker == worker]
        self.counters["reclaimed_disconnect"].inc(len(held))
        return self._reclaim(held, now, f"disconnect:{worker}")
