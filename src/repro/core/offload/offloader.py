"""The SSD offloader.

Runs inside the SSD controller (on a dedicated embedded core) and, for every
vector instruction of the downloaded Conduit binary (Section 4.3.2):

1. collects the six cost-function features (:class:`FeatureCollector`);
2. asks the offloading policy for a target resource;
3. translates the instruction into the target's native ISA and splits the
   compile-time vector width into resource-sized sub-operations
   (:class:`InstructionTransformer`);
4. moves operands to the target resource's home location (through the
   platform's data-movement engine, honouring lazy coherence);
5. dispatches the instruction into the target resource's execution queue
   and reserves its execution slot.

The offloader core itself is a shared resource: its per-instruction serial
occupancy is the feature-collection plus transformation latency divided by a
small pipelining factor (independent lookups -- L2P, queue counters,
latency tables -- are issued concurrently), while the *full* overhead is
charged to the instruction's own ready time, reproducing the 3.77 us average
overhead of Section 4.5.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common import DataLocation, ResourceLike
from repro.core.compiler.ir import VectorInstruction
from repro.core.layout import ArrayLayout
from repro.core.offload.features import FeatureCollector, WaveBatch
from repro.core.offload.policies import (OffloadingPolicy, PackedMember,
                                         PolicyContext)
from repro.core.offload.transform import InstructionTransformer
from repro.core.platform import SSDPlatform


#: Independent feature lookups issued concurrently by the offloader core;
#: the serial dispatcher occupancy is overhead / PIPELINE_DEPTH.
PIPELINE_DEPTH = 8


@dataclass(slots=True)
class OffloadDecision:
    """Everything the runtime needs to know about one offloaded instruction."""

    resource: ResourceLike
    dispatch_ns: float
    ready_ns: float
    start_ns: float
    end_ns: float
    compute_ns: float
    data_movement_ns: float
    overhead_ns: float


class SSDOffloader:
    """Per-instruction offloading engine."""

    def __init__(self, platform: SSDPlatform, layout: ArrayLayout,
                 policy: OffloadingPolicy) -> None:
        self.platform = platform
        self.layout = layout
        self.policy = policy
        self.collector = FeatureCollector(platform, layout)
        self.transformer = InstructionTransformer(platform)
        #: Offloading overhead of every decision, in issue order (the
        #: Section 4.5 average/maximum are taken over it at the end).
        self.overheads: List[float] = []
        # Dispatch-loop constants and handles, resolved once: the offload
        # path runs per instruction and per policy.
        self._is_ideal = policy.is_ideal
        self._choose = policy.choose
        self._choose_packed = policy.choose_packed
        self._collect = self.collector.collect
        self._transform = self.transformer.transform
        self._dispatch_core = platform.dispatch_core
        #: One reusable packed-member carrier for the wave-batched path;
        #: policies read it synchronously inside ``choose_packed`` and
        #: never retain it (mirrors the reusable PolicyContext below).
        self._packed = PackedMember(self.collector)
        #: One reusable policy context; policies read it synchronously
        #: inside ``choose`` and never retain it.
        self._context = PolicyContext(platform=platform, now=0.0, elapsed=1.0)
        #: In-flight queue entries: backend -> min-heap of (end time, uid),
        #: so draining pops only the entries that actually completed instead
        #: of rebuilding the whole list on every offload call.  Keys come
        #: from the platform's backend registry, not a hardcoded trio.
        self._in_flight: Dict[ResourceLike, List[Tuple[float, int]]] = {
            resource: [] for resource in platform.offload_candidates()}
        #: Earliest completion time across the in-flight heaps; draining
        #: is a no-op before this, so the per-offload scan is skipped.
        self._next_retire = float("inf")

    # -- Queue bookkeeping ---------------------------------------------------------

    def _drain_queues(self, now: float) -> None:
        """Retire queue entries whose completion time has passed."""
        if now < self._next_retire:
            return
        queues = self.platform.queues
        next_retire = float("inf")
        for resource, heap in self._in_flight.items():
            if heap and heap[0][0] <= now:
                queue = queues[resource]
                while heap and heap[0][0] <= now:
                    _, uid = heapq.heappop(heap)
                    queue.complete(uid)
            if heap and heap[0][0] < next_retire:
                next_retire = heap[0][0]
        self._next_retire = next_retire

    # -- Main entry point -------------------------------------------------------------

    def offload(self, instruction: VectorInstruction, arrival_ns: float,
                deps_ready_ns: float, elapsed_ns: float) -> OffloadDecision:
        """Offload one instruction.

        ``arrival_ns`` is when the offloader core can start working on the
        instruction (after the previous dispatch), ``deps_ready_ns`` is when
        its producers finish, and ``elapsed_ns`` is the current wall-clock
        used for utilization-based policies.
        """
        if arrival_ns >= self._next_retire:
            self._drain_queues(arrival_ns)
        pending_producer = deps_ready_ns - arrival_ns
        if pending_producer < 0.0:
            pending_producer = 0.0
        features = self._collect(instruction, arrival_ns, pending_producer)
        context = self._context
        context.now = arrival_ns
        context.elapsed = elapsed_ns if elapsed_ns > 1.0 else 1.0
        resource = self._choose(instruction, features, context)
        overhead_ns = features.collection_latency_ns
        if not self._is_ideal:
            overhead_ns += self._transform(instruction,
                                           resource).lookup_latency_ns
        # Inlined single-server dispatch-core reservation (the serial
        # occupancy is always nonnegative, so the negative-duration guard
        # of Server.reserve cannot fire).
        serial_ns = overhead_ns / PIPELINE_DEPTH
        core = self._dispatch_core
        free = core._free_at
        dispatch_start = arrival_ns if arrival_ns >= free else free
        core._free_at = dispatch_start + serial_ns
        core.busy_time += serial_ns
        core.jobs += 1
        issue_ns = dispatch_start + overhead_ns

        if self._is_ideal:
            compute = features.per_resource[resource].expected_compute_latency_ns
            return self._execute_ideal(instruction, resource,
                                       dispatch_start, issue_ns,
                                       deps_ready_ns, overhead_ns, compute)
        source_runs = features.source_runs
        if source_runs is None:
            source_runs = self.collector.operand_runs(instruction)
        dest_run = self.collector.destination_run(instruction)
        # The collector already resolved the chosen candidate's
        # precomputed latency point; reuse it (identical memoized float)
        # rather than walking the backend chain again.
        chosen = features.per_resource.get(resource)
        if chosen is not None and chosen.supported:
            compute: Optional[float] = chosen.expected_compute_latency_ns
        else:
            compute = None
        movement_estimate = (chosen.data_movement_latency_ns
                             if chosen is not None else 0.0)
        return self._execute_real(instruction, resource, dispatch_start,
                                  issue_ns, deps_ready_ns, overhead_ns,
                                  source_runs, dest_run, compute,
                                  movement_estimate)

    # -- Wave-batched entry points (PlatformConfig.batched_offload) ---------------------

    def begin_wave(self, instructions: List[VectorInstruction],
                   source_runs: List[Tuple[Tuple[int, int], ...]],
                   dest_runs: List[Optional[Tuple[int, int]]]) -> WaveBatch:
        """Precollect one dependence-free, page-disjoint wave's features."""
        return self.collector.collect_batch(instructions, source_runs,
                                            dest_runs)

    def offload_member(self, batch: Optional[WaveBatch], pos: int,
                       instruction: VectorInstruction, arrival_ns: float,
                       deps_ready_ns: float,
                       elapsed_ns: float) -> OffloadDecision:
        """Offload one wave member from its precollected features.

        Bit-identical to :meth:`offload` by construction: the precollected
        components cannot have changed since collection (the wave is
        page-disjoint and the hazard counters are revalidated below), the
        LRU refreshes recorded at precollect time are replayed here so the
        mapping cache sees the exact sequential access order, and every
        live term -- queueing delay, dependence delay, contention
        penalties -- is read at this member's own decision time exactly as
        :meth:`FeatureCollector.collect` would.  Any hazard kills the
        whole batch (sticky) and falls back to the reference path.
        """
        if batch is None or batch.dead:
            return self.offload(instruction, arrival_ns, deps_ready_ns,
                                elapsed_ns)
        platform = self.platform
        cache = platform.ssd.ftl.cache
        if (platform.eviction_epoch != batch.eviction_epoch
                or cache.version != batch.mapping_version):
            # A previous member's dispatch evicted a page or churned the
            # L2P cache membership: the precollected locations / hit
            # partitions may be stale for the rest of the wave.
            batch.dead = True
            return self.offload(instruction, arrival_ns, deps_ready_ns,
                                elapsed_ns)
        if arrival_ns >= self._next_retire:
            self._drain_queues(arrival_ns)
        pending_producer = deps_ready_ns - arrival_ns
        if pending_producer < 0.0:
            pending_producer = 0.0
        # Replay the LRU refreshes the sequential collect would issue at
        # this decision point (membership is unchanged -- revalidated
        # above -- so the recorded hits are still hits).
        move_to_end = cache._entries.move_to_end
        for lpa in batch.hit_lpas[pos]:
            move_to_end(lpa)
        collection_ns = batch.collection_ns[pos]
        self.collector.charge(collection_ns)

        feedback = platform.config.contention_feedback
        static = batch.static[pos]
        movement_row = batch.movement_rows[pos]
        op = instruction.op
        size_bytes = instruction.size_bytes
        element_bits = instruction.element_bits
        penalty = platform.contention_penalty_ns
        queue_delays: List[float] = []
        contention_delays: List[float] = []
        for index, (resource, _, _, _, queue) in enumerate(static):
            queue_delays.append(queue._pending_latency / queue._parallelism)
            contention_delays.append(
                penalty(resource, op, size_bytes, element_bits,
                        movement_row[index], arrival_ns)
                if feedback else 0.0)

        packed = self._packed
        packed.batch = batch
        packed.index = pos
        packed.instruction = instruction
        packed.static = static
        packed.movement_ns = movement_row
        packed.queue_delays_ns = queue_delays
        packed.contention_delays_ns = contention_delays
        packed.dependence_delay_ns = pending_producer
        context = self._context
        context.now = arrival_ns
        context.elapsed = elapsed_ns if elapsed_ns > 1.0 else 1.0
        resource = self._choose_packed(packed, context)
        overhead_ns = collection_ns
        if not self._is_ideal:
            overhead_ns += self._transform(instruction,
                                           resource).lookup_latency_ns
        serial_ns = overhead_ns / PIPELINE_DEPTH
        core = self._dispatch_core
        free = core._free_at
        dispatch_start = arrival_ns if arrival_ns >= free else free
        core._free_at = dispatch_start + serial_ns
        core.busy_time += serial_ns
        core.jobs += 1
        issue_ns = dispatch_start + overhead_ns

        chosen_index = -1
        for index, entry in enumerate(static):
            if entry[0] == resource:
                chosen_index = index
                break
        if self._is_ideal:
            if chosen_index >= 0:
                compute = static[chosen_index][3]
            else:
                compute = platform.backends._backends[
                    resource].operation_latency(op, size_bytes, element_bits)
            return self._execute_ideal(instruction, resource,
                                       dispatch_start, issue_ns,
                                       deps_ready_ns, overhead_ns, compute)
        if chosen_index >= 0:
            entry = static[chosen_index]
            compute = entry[3] if entry[2] else None
            movement_estimate = movement_row[chosen_index]
        else:
            compute = None
            movement_estimate = 0.0
        return self._execute_real(instruction, resource, dispatch_start,
                                  issue_ns, deps_ready_ns, overhead_ns,
                                  batch.source_runs[pos],
                                  batch.dest_runs[pos], compute,
                                  movement_estimate)

    # -- Ideal execution (no contention, free data movement) ------------------------------

    def _execute_ideal(self, instruction: VectorInstruction,
                       resource: ResourceLike,
                       dispatch_ns: float, issue_ns: float,
                       deps_ready_ns: float, overhead_ns: float,
                       compute: float) -> OffloadDecision:
        start = issue_ns if issue_ns >= deps_ready_ns else deps_ready_ns
        end = start + compute
        self.platform.record_compute(start, resource, instruction.op,
                                     instruction.size_bytes,
                                     instruction.element_bits)
        self.overheads.append(overhead_ns)
        return OffloadDecision(resource, dispatch_ns, start, start, end,
                               compute, 0.0, overhead_ns)

    # -- Real execution (moves data, reserves queues) ---------------------------------------

    def _execute_real(self, instruction: VectorInstruction,
                      resource: ResourceLike, dispatch_ns: float,
                      issue_ns: float, deps_ready_ns: float,
                      overhead_ns: float,
                      source_runs, dest_run: Optional[Tuple[int, int]],
                      compute: Optional[float],
                      movement_estimate: float) -> OffloadDecision:
        platform = self.platform
        backend = platform.backends._backends[resource]
        home = backend.home_location
        op = instruction.op
        size_bytes = instruction.size_bytes
        element_bits = instruction.element_bits
        uid = instruction.uid

        move_start = issue_ns if issue_ns >= deps_ready_ns else deps_ready_ns
        # Lazy coherence: a read of a page whose dirty copy lives elsewhere
        # commits that page to flash before it can be re-read.
        commit_end = move_start
        on_read_run = platform.coherence.on_read_run
        for base, count in source_runs:
            for action in on_read_run(base, count, home):
                end = platform.ensure_pages_at(
                    move_start, (action.lpa,), DataLocation.FLASH)
                if end > commit_end:
                    commit_end = end
        dm_end = platform.ensure_runs_at(commit_end, source_runs, home)
        data_movement_ns = dm_end - move_start
        # Live contention feedback: report how long reaching this operand
        # path actually took against its uncontended estimate, so the
        # next instruction's estimates price the observed cost of the
        # path (no-op unless PlatformConfig.contention_feedback is
        # enabled).  Deliberately measured from move_start, i.e.
        # *including* the lazy-coherence commits above: operand ping-pong
        # between homes surfaces as commit delay, and attributing it to
        # the path being entered is what lets the feedback price the
        # write-sharing churn the greedy model is blind to.
        if platform.config.contention_feedback:
            platform.observe_movement_contention(
                resource, movement_estimate, data_movement_ns)

        if compute is None:
            compute = backend.operation_latency(op, size_bytes, element_bits)
        queue = platform.queues[resource]
        queue.enqueue(uid, issue_ns, compute)
        ready = dm_end if dm_end >= deps_ready_ns else deps_ready_ns
        reservation = queue.reserve(uid, ready, compute)
        end_ns = reservation.end
        heapq.heappush(self._in_flight[resource], (end_ns, uid))
        if end_ns < self._next_retire:
            self._next_retire = end_ns
        backend.execute(reservation.start, op, size_bytes, element_bits)
        platform.energy.add_compute(
            resource, backend.operation_energy(op, size_bytes, element_bits))
        # Execution-time shared-channel traffic (Ares-Flash shuttles
        # partial products between the flash chips and the controller,
        # Section 6.4) is declared by the backend and occupies the shared
        # flash channels during execution.
        channel_bytes = backend.execution_channel_bytes(
            op, size_bytes, element_bits)
        if channel_bytes:
            platform.ssd.channels.channels.transfer(reservation.start,
                                                    channel_bytes)

        # The destination pages now live at the resource's home location
        # (and, under strict coherence, are written through to flash).
        if dest_run is not None:
            actions = platform.coherence.on_write_run(dest_run[0],
                                                      dest_run[1], home)
            platform.mark_produced_run(end_ns, (dest_run,), home)
            if actions:
                platform.write_through(end_ns, actions)

        self.overheads.append(overhead_ns)
        return OffloadDecision(resource, dispatch_ns, ready,
                               reservation.start, end_ns, compute,
                               data_movement_ns, overhead_ns)

    # -- Overhead statistics (Section 4.5) ---------------------------------------------------

    @property
    def average_overhead_ns(self) -> float:
        overheads = self.overheads
        if not overheads:
            return 0.0
        # sum() over the issue-ordered floats rather than a running +=
        # total: CPython 3.12's sum() is compensated, so the two differ.
        return sum(overheads) / len(overheads)

    @property
    def max_overhead_ns(self) -> float:
        return max(self.overheads, default=0.0)
