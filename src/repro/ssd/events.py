"""Reservation servers: the simulator's timing kernel.

The simulator books every latency-bearing activity (a flash read, a DMA
transfer over a flash channel, a bulk-bitwise operation in DRAM, an
offloaded vector instruction) as a reservation on a resource with a
virtual clock measured in nanoseconds, instead of running a global event
queue like the MQSim-derived simulator the paper uses.

:class:`Server` / :class:`MultiServer` / :class:`SharedBus` /
:class:`BusGroup` model computation resources (controller cores, DRAM
banks, flash dies) and shared interconnects (flash channels, the SSD DRAM
bus, PCIe).  They answer the question "if a job of duration *d* arrives at
time *t*, when does it start and finish?", which is exactly the
information the runtime offloader's cost function needs (queueing delay)
and what the timing model needs to chain dependent operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common import SimulationError


@dataclass(slots=True)
class Reservation:
    """The outcome of reserving a resource: when work starts and ends."""

    start: float
    end: float


class Server:
    """A single-server FCFS resource (e.g. one embedded controller core).

    The server tracks the time at which it becomes free.  ``reserve`` books a
    job of a given duration at the earliest possible time not before
    ``arrival`` and returns the resulting :class:`Reservation`.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._free_at = 0.0
        self.busy_time = 0.0

    @property
    def free_at(self) -> float:
        return self._free_at

    def queueing_delay(self, arrival: float) -> float:
        """Delay a job arriving at ``arrival`` would wait before starting."""
        return max(0.0, self._free_at - arrival)

    def reserve(self, arrival: float, duration: float) -> Reservation:
        if duration < 0:
            raise SimulationError(
                f"negative duration {duration} on server {self.name}")
        free = self._free_at
        start = arrival if arrival >= free else free
        end = start + duration
        self._free_at = end
        self.busy_time += duration
        return Reservation(start, end)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` time this server spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class MultiServer:
    """A pool of identical FCFS servers (e.g. flash dies, DRAM banks).

    Jobs are placed on the server that frees up first, which models the
    simulator's ability to exploit die- and bank-level parallelism.
    """

    def __init__(self, name: str, servers: int) -> None:
        if servers <= 0:
            raise SimulationError(f"{name}: server count must be positive")
        self.name = name
        self._free_at = [0.0] * servers
        self.busy_time = 0.0

    @property
    def servers(self) -> int:
        return len(self._free_at)

    def queueing_delay(self, arrival: float) -> float:
        return max(0.0, min(self._free_at) - arrival)

    def reserve(self, arrival: float, duration: float) -> Reservation:
        """Book a job on the first server to free up."""
        if duration < 0:
            raise SimulationError(
                f"negative duration {duration} on pool {self.name}")
        free = self._free_at
        # First-least-loaded server; list.index(min(...)) keeps the same
        # first-minimum tie-break as an argmin scan.
        server_index = free.index(min(free))
        server_free = free[server_index]
        start = arrival if arrival >= server_free else server_free
        end = start + duration
        free[server_index] = end
        self.busy_time += duration
        return Reservation(start, end)

    def reserve_on(self, server_index: int, arrival: float,
                   duration: float) -> float:
        """Book a job on one given server (a page's die); return its end."""
        if duration < 0:
            raise SimulationError(
                f"negative duration {duration} on pool {self.name}")
        free = self._free_at
        server_free = free[server_index]
        end = (arrival if arrival >= server_free else server_free) + duration
        free[server_index] = end
        self.busy_time += duration
        return end

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * self.servers))


class SharedBus:
    """A bandwidth-limited shared interconnect (flash channel, DRAM bus).

    Transfers occupy the bus for ``size / bandwidth`` and are serialized:
    this captures the flash-channel contention the paper identifies as the
    main cost of naively combining ISP and IFP (Section 3.1).  The bus is
    one FCFS server with its own clock, and a transfer returns its end
    time.
    """

    def __init__(self, name: str, bandwidth_bytes_per_ns: float) -> None:
        if bandwidth_bytes_per_ns <= 0:
            raise SimulationError(f"{name}: bandwidth must be positive")
        self.name = name
        self.bandwidth = bandwidth_bytes_per_ns
        self._free_at = 0.0
        self.busy_time = 0.0
        self.bytes_moved = 0.0

    @property
    def free_at(self) -> float:
        return self._free_at

    def transfer_time(self, size_bytes: float) -> float:
        """Uncontended time to move ``size_bytes`` over this bus."""
        return size_bytes / self.bandwidth

    def queueing_delay(self, arrival: float) -> float:
        return max(0.0, self._free_at - arrival)

    def transfer(self, arrival: float, size_bytes: float) -> float:
        """Move ``size_bytes`` once the bus is free; return the end time."""
        duration = size_bytes / self.bandwidth
        if duration < 0:
            raise SimulationError(
                f"negative duration {duration} on bus {self.name}")
        self.bytes_moved += size_bytes
        free = self._free_at
        end = (arrival if arrival >= free else free) + duration
        self._free_at = end
        self.busy_time += duration
        return end

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class BusGroup:
    """A set of interchangeable buses (e.g. the SSD's eight flash channels).

    ``transfer`` picks the least-loaded bus unless the caller pins the
    transfer to a specific channel (data already striped onto a channel must
    use that channel).
    """

    def __init__(self, name: str, count: int,
                 bandwidth_bytes_per_ns: float) -> None:
        if count <= 0:
            raise SimulationError(f"{name}: bus count must be positive")
        self.name = name
        self.buses = [SharedBus(f"{name}[{i}]", bandwidth_bytes_per_ns)
                      for i in range(count)]

    def __len__(self) -> int:
        return len(self.buses)

    def transfer_time(self, size_bytes: float) -> float:
        return self.buses[0].transfer_time(size_bytes)

    def queueing_delay(self, arrival: float) -> float:
        return min(bus.queueing_delay(arrival) for bus in self.buses)

    def transfer(self, arrival: float, size_bytes: float,
                 channel: Optional[int] = None) -> float:
        """Move ``size_bytes`` over one bus; return the end time.

        The least-loaded bus carries it unless ``channel`` pins one.
        """
        buses = self.buses
        if channel is None:
            # First-least-loaded bus (same tie-break as an argmin scan).
            free_ats = [bus._free_at for bus in buses]
            channel = free_ats.index(min(free_ats))
        return buses[channel].transfer(arrival, size_bytes)

    @property
    def bytes_moved(self) -> float:
        return sum(bus.bytes_moved for bus in self.buses)

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return sum(bus.utilization(elapsed) for bus in self.buses) / len(self.buses)
