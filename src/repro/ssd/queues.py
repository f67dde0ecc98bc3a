"""Execution queues for SSD computation resources.

The paper adds a dedicated execution queue to each SSD computation resource
(ISP, PuD-SSD, IFP) so that (1) the offloader can track each resource's
utilization through its queueing delay and (2) multiple resources can
execute independent instructions concurrently (Section 5.1, "NDP
Extensions").  Conduit's cost function consumes the *resource queueing
delay*: the cumulative estimated execution latency of the instructions
currently enqueued (Section 4.5, footnote 5).

:class:`ExecutionQueue` owns that backlog.  :meth:`ExecutionQueue.reserve`
books an execution slot on a :class:`repro.ssd.events.MultiServer` (so
die-/bank-/core-level parallelism is captured) and adds the slot's duration
to the running counter; :meth:`ExecutionQueue.retire` drops the slots that
have ended by a given time and subtracts their durations again.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.common import ResourceLike
from repro.ssd.events import MultiServer, Reservation


class ExecutionQueue:
    """Execution queue of one SSD computation resource.

    Parameters
    ----------
    resource:
        Which computation resource this queue feeds.
    parallelism:
        Number of sub-units that can execute enqueued instructions
        concurrently (e.g. flash dies for IFP, DRAM banks for PuD-SSD,
        compute cores for ISP).
    """

    def __init__(self, resource: ResourceLike, parallelism: int = 1) -> None:
        self.resource = resource
        self.servers = MultiServer(f"{resource.value}-queue", parallelism)
        #: Running counter of the duration of reserved, not yet retired
        #: slots (the paper's footnote-5 counter).
        self._pending_latency = 0.0
        self._parallelism = self.servers.servers
        #: Reserved, not yet retired slots: a min-heap of
        #: ``(end, instruction id, duration)``.
        self._slots: List[Tuple[float, int, float]] = []

    @property
    def parallelism(self) -> int:
        return self.servers.servers

    def queueing_delay(self, now: float) -> float:
        """Estimated delay a new instruction would wait before starting.

        This is the paper's running-counter estimate (Section 4.5, fn. 5):
        the cumulative estimated execution latency of the instructions
        currently enqueued, normalised by the queue's parallelism (a
        resource with many parallel sub-units drains its backlog faster).
        Stall time those instructions spend waiting for their own operands
        is *not* included -- the offloader cannot observe it cheaply.
        """
        return self._pending_latency / self._parallelism

    def reserve(self, instruction_id: int, ready_time: float,
                duration: float) -> Reservation:
        """Book an execution slot and add it to the backlog."""
        reservation = self.servers.reserve(ready_time, duration)
        self._pending_latency += duration
        heapq.heappush(self._slots,
                       (reservation.end, instruction_id, duration))
        return reservation

    def retire(self, now: float) -> float:
        """Drop the slots ended by ``now`` from the backlog, in
        ``(end, instruction id)`` order; return the next end time
        (infinity when nothing is left)."""
        slots = self._slots
        while slots and slots[0][0] <= now:
            self._pending_latency -= heapq.heappop(slots)[2]
            if self._pending_latency < 1e-9:
                self._pending_latency = 0.0
        return slots[0][0] if slots else float("inf")

    def utilization(self, elapsed: float) -> float:
        return self.servers.utilization(elapsed)
