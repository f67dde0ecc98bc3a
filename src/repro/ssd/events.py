"""Event-driven simulation kernel.

The SSD simulator in this repository is event driven, like the MQSim-derived
simulator used by the paper: every latency-bearing activity (a flash read, a
DMA transfer over a flash channel, a bulk-bitwise operation in DRAM, the
completion of an offloaded vector instruction) is represented as an event on
a global virtual clock measured in nanoseconds.

Two building blocks live here:

* :class:`EventScheduler` -- a priority-queue scheduler with a monotonically
  advancing virtual clock.
* :class:`Server` / :class:`MultiServer` / :class:`SharedBus` -- reservation
  based resource models used for computation resources (controller cores,
  DRAM banks, flash dies) and shared interconnects (flash channels, the SSD
  DRAM bus, PCIe).  They answer the question "if a job of duration *d*
  arrives at time *t*, when does it start and finish?", which is exactly the
  information the runtime offloader's cost function needs (queueing delay)
  and what the event engine needs to schedule completion events.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.common import SimulationError

EventCallback = Callable[["Event"], None]


@dataclass(order=True)
class Event:
    """A single scheduled event.

    Events compare by ``(time, priority, seq)`` so that ties at the same
    timestamp are broken first by explicit priority and then by insertion
    order, which keeps the simulation deterministic.
    """

    time: float
    priority: int
    seq: int
    callback: EventCallback = field(compare=False)
    label: str = field(compare=False, default="")
    payload: object = field(compare=False, default=None)
    cancelled: bool = field(compare=False, default=False)
    #: Scheduler owning this event; lets ``cancel`` keep the scheduler's
    #: live-event counter exact without scanning the heap.
    scheduler: Optional["EventScheduler"] = field(compare=False, default=None,
                                                 repr=False)
    executed: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        if self.cancelled or self.executed:
            return
        self.cancelled = True
        if self.scheduler is not None:
            self.scheduler._on_cancel()


class EventScheduler:
    """Priority-queue based discrete-event scheduler."""

    def __init__(self) -> None:
        self._queue: List[Event] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._live = 0

    @property
    def now(self) -> float:
        """Current virtual time in nanoseconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-processed (and not cancelled) events.

        Maintained as a live counter (incremented on ``schedule``,
        decremented on execution and cancellation) so the query is O(1)
        instead of a full heap scan.
        """
        return self._live

    def _on_cancel(self) -> None:
        self._live -= 1

    @property
    def processed(self) -> int:
        """Number of events that have been executed so far."""
        return self._processed

    def schedule(self, time: float, callback: EventCallback, *,
                 label: str = "", payload: object = None,
                 priority: int = 0) -> Event:
        """Schedule ``callback`` to run at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event '{label}' at {time} ns; "
                f"clock is already at {self._now} ns"
            )
        event = Event(time=time, priority=priority, seq=next(self._seq),
                      callback=callback, label=label, payload=payload,
                      scheduler=self)
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    def schedule_after(self, delay: float, callback: EventCallback, *,
                       label: str = "", payload: object = None,
                       priority: int = 0) -> Event:
        """Schedule ``callback`` to run ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for '{label}'")
        return self.schedule(self._now + delay, callback, label=label,
                             payload=payload, priority=priority)

    def step(self) -> Optional[Event]:
        """Pop and execute the next event; return it (or None if empty)."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            self._processed += 1
            self._live -= 1
            event.executed = True
            event.callback(event)
            return event
        return None

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` or ``max_events``.

        Returns the final virtual time.
        """
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            next_event = self._peek()
            if next_event is None:
                break
            if until is not None and next_event.time > until:
                # Clamp, never rewind: an ``until`` in the past must not
                # move the monotonic clock backwards.
                if until > self._now:
                    self._now = until
                break
            self.step()
            executed += 1
        return self._now

    def _peek(self) -> Optional[Event]:
        # Opportunistically prune cancelled events so they do not pile up
        # at the front of the heap (their live count was already released
        # by ``Event.cancel``).
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0] if self._queue else None


@dataclass(slots=True)
class Reservation:
    """The outcome of reserving a resource: when work starts and ends."""

    start: float
    end: float
    server_index: int = 0

    # ``wait`` is filled in by the resources below; dataclass fields keep it
    # explicit rather than recomputing from an arrival time we do not store.
    _wait: float = 0.0

    @property
    def wait(self) -> float:
        """Queueing delay experienced before the work started."""
        return self._wait


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
        self.jobs = 0

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
        self.jobs += 1
        return Reservation(start, end, 0, start - arrival)

    def reserve_batch(self, arrivals: List[float],
                      duration: float) -> List[float]:
        """Reserve one equal-duration job per arrival; return finish times.

        Exactly equivalent to calling :meth:`reserve` once per arrival in
        order (same start/finish chain, same busy time and job count), but
        performed as one bulk booking so run-batched data movement can
        reserve a whole contiguous page run with a single call.
        """
        if duration < 0:
            raise SimulationError(
                f"negative duration {duration} on server {self.name}")
        free = self._free_at
        busy = self.busy_time
        ends: List[float] = []
        append = ends.append
        for arrival in arrivals:
            free = (arrival if arrival > free else free) + duration
            busy += duration
            append(free)
        self._free_at = free
        self.busy_time = busy
        self.jobs += len(ends)
        return ends

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
        self.jobs = 0

    @property
    def servers(self) -> int:
        return len(self._free_at)

    def queueing_delay(self, arrival: float) -> float:
        return max(0.0, min(self._free_at) - arrival)

    def reserve(self, arrival: float, duration: float,
                server_index: Optional[int] = None) -> Reservation:
        if duration < 0:
            raise SimulationError(
                f"negative duration {duration} on pool {self.name}")
        free = self._free_at
        if server_index is None:
            # First-least-loaded server; list.index(min(...)) keeps the
            # same first-minimum tie-break as an argmin scan.
            server_index = free.index(min(free))
        server_free = free[server_index]
        start = arrival if arrival >= server_free else server_free
        end = start + duration
        free[server_index] = end
        self.busy_time += duration
        self.jobs += 1
        return Reservation(start, end, server_index, start - arrival)

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * self.servers))


class SharedBus:
    """A bandwidth-limited shared interconnect (flash channel, DRAM bus).

    Transfers occupy the bus for ``size / bandwidth`` and are serialized:
    this captures the flash-channel contention the paper identifies as the
    main cost of naively combining ISP and IFP (Section 3.1).
    """

    def __init__(self, name: str, bandwidth_bytes_per_ns: float) -> None:
        if bandwidth_bytes_per_ns <= 0:
            raise SimulationError(f"{name}: bandwidth must be positive")
        self.name = name
        self.bandwidth = bandwidth_bytes_per_ns
        self._server = Server(name)
        self.bytes_moved = 0.0

    @property
    def free_at(self) -> float:
        return self._server.free_at

    def transfer_time(self, size_bytes: float) -> float:
        """Uncontended time to move ``size_bytes`` over this bus."""
        return size_bytes / self.bandwidth

    def queueing_delay(self, arrival: float) -> float:
        return self._server.queueing_delay(arrival)

    def transfer(self, arrival: float, size_bytes: float) -> Reservation:
        """Reserve the bus for a transfer of ``size_bytes`` at ``arrival``."""
        self.bytes_moved += size_bytes
        return self._server.reserve(arrival, size_bytes / self.bandwidth)

    def transfer_batch(self, arrivals: List[float],
                       size_bytes_each: float) -> List[float]:
        """Reserve back-to-back equal-sized transfers; return finish times.

        The single sized booking of the run-batched data-movement engine:
        one call occupies the bus exactly like ``len(arrivals)`` consecutive
        :meth:`transfer` calls (bubbles included when a later arrival lands
        after the previous transfer drains), so timing equivalence with the
        per-page path is preserved by construction.
        """
        duration = self.transfer_time(size_bytes_each)
        ends = self._server.reserve_batch(arrivals, duration)
        self.bytes_moved += size_bytes_each * len(ends)
        return ends

    def utilization(self, elapsed: float) -> float:
        return self._server.utilization(elapsed)


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
                 channel: Optional[int] = None) -> Reservation:
        buses = self.buses
        if channel is None:
            # First-least-loaded bus (same tie-break as an argmin scan).
            free_ats = [bus._server._free_at for bus in buses]
            channel = free_ats.index(min(free_ats))
        reservation = buses[channel].transfer(arrival, size_bytes)
        reservation.server_index = channel
        return reservation

    @property
    def bytes_moved(self) -> float:
        return sum(bus.bytes_moved for bus in self.buses)

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return sum(bus.utilization(elapsed) for bus in self.buses) / len(self.buses)
