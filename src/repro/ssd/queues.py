"""Execution queues for SSD computation resources.

The paper adds a dedicated execution queue to each SSD computation resource
(ISP, PuD-SSD, IFP) so that (1) the offloader can track each resource's
utilization through its queueing delay and (2) multiple resources can
execute independent instructions concurrently (Section 5.1, "NDP
Extensions").  Conduit's cost function consumes the *resource queueing
delay*: the cumulative estimated execution latency of the instructions
currently enqueued (Section 4.5, footnote 5).

:class:`ExecutionQueue` implements exactly that: a running counter of
pending work plus a reservation-based service model backed by
:class:`repro.ssd.events.MultiServer` so die-/bank-/core-level parallelism
is captured.
"""

from __future__ import annotations

from typing import Dict

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
        #: Running counter of estimated execution latency of enqueued but
        #: not yet completed instructions (the paper's footnote-5 counter).
        self._pending_latency = 0.0
        self._parallelism = self.servers.servers
        #: Estimated latency of each enqueued, not yet completed
        #: instruction, keyed by instruction id.
        self._pending: Dict[int, float] = {}

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

    def enqueue(self, instruction_id: int, now: float,
                estimated_latency: float) -> None:
        """Record dispatch of an instruction; increments the counter."""
        self._pending[instruction_id] = estimated_latency
        self._pending_latency += estimated_latency

    def reserve(self, instruction_id: int, ready_time: float,
                duration: float) -> Reservation:
        """Reserve an execution slot for an enqueued instruction."""
        if instruction_id not in self._pending:
            raise KeyError(instruction_id)
        return self.servers.reserve(ready_time, duration)

    def complete(self, instruction_id: int) -> None:
        """Mark an instruction complete; decrements the counter."""
        self._pending_latency -= self._pending.pop(instruction_id)
        if self._pending_latency < 1e-9:
            self._pending_latency = 0.0

    def utilization(self, elapsed: float) -> float:
        return self.servers.utilization(elapsed)
