"""Runtime feature collection (Table 1).

For every vectorized instruction the SSD offloader gathers six features:

1. **Operation type** -- embedded in the optimized IR at compile time.
2. **Operand location** -- from the L2P table (100 ns per operand for a
   DRAM-cached entry, 30 us on a mapping-cache miss).
3. **Data-dependence delay** -- time until the instruction's operands become
   available, estimated by summing the predicted computation costs of the
   pending producer instructions (1 us per queue scan).
4. **Resource queueing delay** -- the per-resource running counter of
   pending estimated execution latency (1 us per resource).
5. **Data-movement latency** -- looked up from the precomputed table of
   per-location/per-size transfer costs stored in SSD DRAM (100 ns).
6. **Expected computation latency** -- looked up from precomputed per-op
   per-resource latency estimates (150 ns).

The collector also reports the *feature-collection latency* so the paper's
runtime-overhead analysis (3.77 us average, up to 33 us) can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common import DataLocation, OpType, ResourceLike, US
from repro.core.compiler.ir import VectorInstruction
from repro.core.layout import ArrayLayout
from repro.core.platform import SSDPlatform

#: Fixed per-component collection latencies from Section 4.5.
L2P_DRAM_LOOKUP_NS = 100.0
L2P_FLASH_LOOKUP_NS = 30.0 * US
DEPENDENCE_SCAN_NS_PER_QUEUE = 1.0 * US
QUEUE_DELAY_TRACK_NS = 1.0 * US
MOVE_TABLE_LOOKUP_NS = 100.0
COMPUTE_TABLE_LOOKUP_NS = 150.0
#: One read of the contention-feedback table (per-path overrun averages
#: plus private-link backlog counters) per instruction, charged only when
#: ``PlatformConfig.contention_feedback`` is enabled.
CONTENTION_SAMPLE_NS = 100.0


@dataclass(slots=True)
class ResourceFeatures:
    """Per-backend feature values for one instruction."""

    resource: ResourceLike
    supported: bool
    expected_compute_latency_ns: float
    data_movement_latency_ns: float
    queueing_delay_ns: float
    dependence_delay_ns: float
    #: Expected extra movement delay from observed link contention on this
    #: candidate's operand path (EWMA movement-overrun feedback plus
    #: private-link backlog; exactly 0.0 when
    #: ``PlatformConfig.contention_feedback`` is off, so the uncorrected
    #: cost model stays bit-exact).
    contention_delay_ns: float = 0.0

    @property
    def contended_data_movement_latency_ns(self) -> float:
        """The movement estimate the cost model consumes (Eqn. 1 input).

        ``data_movement_latency_ns`` stays the raw uncontended table
        lookup; this property charges the observed contention of the
        operand path on top (what a movement issued *now* would actually
        take).  A candidate that moves nothing never touches the
        congested links, so it pays no penalty.
        """
        if self.contention_delay_ns == 0.0:
            return self.data_movement_latency_ns
        return self.data_movement_latency_ns + self.contention_delay_ns


@dataclass(slots=True)
class InstructionFeatures:
    """The full feature vector of one instruction (all six features)."""

    instruction_uid: int
    op: OpType
    operand_locations: Dict[DataLocation, int]
    per_resource: Dict[ResourceLike, ResourceFeatures]
    collection_latency_ns: float
    #: The source operands' resolved ``(base_lpa, count)`` runs, carried so
    #: the dispatch path reuses the collector's resolution instead of
    #: re-resolving each operand (``None`` when built without a collector).
    source_runs: Optional[List[Tuple[int, int]]] = None

    def feature(self, resource: ResourceLike) -> ResourceFeatures:
        return self.per_resource[resource]

    @property
    def candidates(self) -> Tuple[ResourceLike, ...]:
        """Offload candidates this vector covers, in registration order.

        The cost function's argmin, its tie-break and every policy iterate
        this tuple, so decisions follow the platform's backend roster
        instead of a hardcoded resource trio.
        """
        return tuple(self.per_resource)


@dataclass(slots=True)
class WaveBatch:
    """Precollected feature components of one wave (struct-of-arrays).

    Built by :meth:`FeatureCollector.collect_batch` in one strictly
    read-only pass.  Live terms -- queueing delays, dependence delay,
    contention penalties -- are *not* here;
    :meth:`FeatureCollector.materialize` reads them at each member's
    decision time, which is what keeps the wave engine bit-identical to
    the per-instruction engine.  ``eviction_epoch`` /
    ``mapping_version`` snapshot the two hazard counters; the offloader
    revalidates them before every member and marks the batch ``dead``
    (sticky fallback to the per-instruction path) on any change.
    """

    instructions: List["VectorInstruction"]
    #: Per member: source ``(base_lpa, count)`` runs.
    source_runs: List[Tuple[Tuple[int, int], ...]]
    #: Per member: the location histogram's items in first-occurrence
    #: page order (the order the movement sums accumulate in).
    location_items: List[Tuple[Tuple[DataLocation, int], ...]]
    #: Per member: LPAs whose L2P probe hit the mapping cache, in page
    #: order -- replayed (LRU refresh only) at the member's decision time.
    hit_lpas: List[Tuple[int, ...]]
    collection_ns: List[float]
    #: Per member: the shape's static candidate rows
    #: ``(resource, home, supported, compute_latency, queue, channel_ns)``.
    static: List[list]
    #: Per member: collector-gated raw movement sums, one pure-Python
    #: float per candidate (what the decision path consumes directly --
    #: a numpy scalar leaking into the cost arithmetic would break the
    #: bit-equality contract).
    movement_rows: List[List[float]]
    eviction_epoch: int
    mapping_version: int
    dead: bool = False


class FeatureCollector:
    """Collects the six cost-function features for one instruction.

    Every feature is always collected; the cost-model ablations
    (:class:`~repro.core.offload.cost_model.CostModelConfig`) drop terms
    when the cost is evaluated, not here.
    """

    def __init__(self, platform: SSDPlatform, layout: ArrayLayout) -> None:
        self.platform = platform
        self.layout = layout
        # Static per-candidate facts -- support, home location, the
        # precomputed compute-latency point, the execution-queue handle and
        # the uncontended flash-channel time of the execution itself --
        # depend only on (op, size_bytes, element_bits) and the fixed
        # backend roster, so they are resolved once per shape
        # (Section 4.5's precomputed tables) instead of per instruction.
        self._static_features: Dict[
            Tuple[OpType, int, int],
            List[Tuple[ResourceLike, DataLocation, bool, float,
                       "ExecutionQueue", float]]] = {}

    # -- Operand runs / pages -----------------------------------------------------

    def operand_runs(self, instruction: VectorInstruction
                     ) -> List[Tuple[int, int]]:
        """Contiguous ``(base_lpa, count)`` runs of the source operands.

        Per-operand resolutions are memoized in the layout, so this is a
        cheap list build over cached tuples (no per-uid cache is kept: it
        would retain O(program-size) memory for negligible savings).
        """
        element_bits = instruction.element_bits
        run_of = self.layout.page_run_of
        return [run_of(ref, element_bits)
                for ref in instruction.array_sources]

    def destination_run(self, instruction: VectorInstruction
                        ) -> Optional[Tuple[int, int]]:
        """Contiguous run of the destination operand (None if no dest)."""
        if instruction.dest is None:
            return None
        return self.layout.page_run_of(instruction.dest,
                                       instruction.element_bits)

    # -- Collection ----------------------------------------------------------------

    def collect(self, instruction: VectorInstruction, now: float,
                pending_producer_latency: float) -> InstructionFeatures:
        """Gather the feature vector for ``instruction`` at time ``now``.

        ``pending_producer_latency`` is the estimated remaining time until
        the instruction's producers finish (data-dependence delay), which
        the runtime derives from its completion-time bookkeeping.
        """
        platform = self.platform
        runs = self.operand_runs(instruction)
        # (2) operand location: one pass over the operand runs resolves the
        # location histogram (via the residence index) and the L2P lookup
        # cost (one mapping-cache probe per page, preserving the cache's
        # LRU order) together, instead of two per-page sweeps.  The probe
        # is inlined (a hit only refreshes LRU recency; a probe for an
        # uncached page has no side effect), keeping the per-page loop
        # free of method calls.
        residence_get = platform.residence.get
        entries = platform.ssd.ftl.cache._entries
        move_to_end = entries.move_to_end
        flash = DataLocation.FLASH
        locations: Dict[DataLocation, int] = {}
        locations_get = locations.get
        l2p_hits = 0
        l2p_misses = 0
        for base, run_pages in runs:
            for lpa in range(base, base + run_pages):
                location = residence_get(lpa, flash)
                locations[location] = locations_get(location, 0) + 1
                if lpa in entries:
                    move_to_end(lpa)
                    l2p_hits += 1
                else:
                    l2p_misses += 1
        collection_ns = (l2p_hits * L2P_DRAM_LOOKUP_NS +
                         l2p_misses * L2P_FLASH_LOOKUP_NS)
        # (3) dependence delay: scan the execution queues for the pending
        # producers of this instruction's operands.
        collection_ns += DEPENDENCE_SCAN_NS_PER_QUEUE
        # (4) queueing delay: read each resource's running latency counter
        # (read per candidate below; reading is side-effect free).
        collection_ns += QUEUE_DELAY_TRACK_NS
        # (5b) link-contention feedback: each candidate's movement
        # estimate below pays the EWMA-observed overrun of its operand
        # path plus its private-link backlog (the monitor exists only
        # with PlatformConfig.contention_feedback; see
        # repro.core.contention).
        monitor = platform.contention
        if monitor is not None:
            collection_ns += CONTENTION_SAMPLE_NS
        backends = platform.backends
        move_table = platform.move_table
        op = instruction.op
        size_bytes = instruction.size_bytes
        element_bits = instruction.element_bits
        static_key = (op, size_bytes, element_bits)
        static = self._static_features.get(static_key)
        if static is None:
            static = self._resolve_static(static_key)
        # (5)/(6) movement and computation latency from the precomputed
        # tables: one fixed-cost lookup pair per candidate.  Every
        # collection-latency term is an integer-valued float, so summing
        # the per-candidate constants in one multiply is exact.
        collection_ns += ((MOVE_TABLE_LOOKUP_NS + COMPUTE_TABLE_LOOKUP_NS)
                          * len(static))
        # Most instructions find every operand page in one location; the
        # single-entry histogram turns the per-candidate movement sum into
        # one table probe.
        single_location = None
        if len(locations) == 1:
            (single_location, single_pages), = locations.items()
        location_items = locations.items()
        per_resource: Dict[ResourceLike, ResourceFeatures] = {}
        for resource, home, supported, compute, queue, channel_ns in static:
            if single_location is not None:
                movement = move_table[(single_location, home)] * single_pages
            else:
                movement = 0.0
                for location, pages in location_items:
                    movement += move_table[(location, home)] * pages
            per_resource[resource] = ResourceFeatures(
                resource, supported, compute, movement,
                queue._pending_latency / queue._parallelism,
                pending_producer_latency,
                monitor.penalty_ns(home, movement, backends[resource], now,
                                   channel_ns)
                if monitor is not None else 0.0)
        return InstructionFeatures(instruction.uid, op, locations,
                                   per_resource, collection_ns, runs)

    def _resolve_static(self, static_key: Tuple[OpType, int, int]) -> list:
        """Resolve (and memoize) one shape's static candidate rows."""
        op, size_bytes, element_bits = static_key
        platform = self.platform
        backends = platform.backends
        queues = platform.queues
        channels = platform.ssd.channels.channels
        static = []
        for resource in backends.offload_candidates():
            backend = backends[resource]
            supported = backend.supports(op)
            channel_bytes = backend.execution_channel_bytes(op, size_bytes,
                                                            element_bits)
            static.append((
                resource, backend.home_location, supported,
                backend.operation_latency(op, size_bytes, element_bits)
                if supported else float("inf"), queues[resource],
                channels.transfer_time(channel_bytes)
                if channel_bytes > 0.0 else 0.0))
        self._static_features[static_key] = static
        return static

    # -- Wave-batched collection (PlatformConfig.batched_offload) -------------------

    def collect_batch(self, instructions: List[VectorInstruction],
                      source_runs: List[Tuple[Tuple[int, int], ...]]
                      ) -> WaveBatch:
        """Precollect the static feature components of one wave.

        One strictly read-only pass gathers, per member: the
        operand-location histogram (first-occurrence page order
        preserved), the L2P hit/miss partition (membership probes only --
        the LRU refreshes are *replayed* at each member's decision time so
        the mapping cache sees exactly the sequential access order), the
        per-candidate movement-table sums, and the member's fixed
        collection latency (identical per-component charges to
        :meth:`collect`, so Section 4.5's overhead reproduction is
        unchanged).  Live terms -- queueing delay, dependence delay,
        contention penalties -- are deliberately absent:
        :meth:`materialize` reads them at each member's own decision time.
        """
        platform = self.platform
        entries = platform.ssd.ftl.cache._entries
        residence_get = platform.residence.get
        flash = DataLocation.FLASH
        move_table = platform.move_table
        # All collection-latency terms are integer-valued floats, so the
        # fixed per-member constants sum exactly in any association.
        fixed_ns = DEPENDENCE_SCAN_NS_PER_QUEUE + QUEUE_DELAY_TRACK_NS
        if platform.contention is not None:
            fixed_ns += CONTENTION_SAMPLE_NS
        static_features_get = self._static_features.get
        location_items: List[Tuple[Tuple[DataLocation, int], ...]] = []
        hit_lpas: List[Tuple[int, ...]] = []
        collection_ns: List[float] = []
        statics: List[list] = []
        movement_rows: List[List[float]] = []
        for pos, instruction in enumerate(instructions):
            locations: Dict[DataLocation, int] = {}
            locations_get = locations.get
            hits: List[int] = []
            hits_append = hits.append
            misses = 0
            for base, run_pages in source_runs[pos]:
                for lpa in range(base, base + run_pages):
                    location = residence_get(lpa, flash)
                    locations[location] = locations_get(location, 0) + 1
                    if lpa in entries:
                        hits_append(lpa)
                    else:
                        misses += 1
            static_key = (instruction.op, instruction.size_bytes,
                          instruction.element_bits)
            static = static_features_get(static_key)
            if static is None:
                static = self._resolve_static(static_key)
            collection_ns.append(
                len(hits) * L2P_DRAM_LOOKUP_NS
                + misses * L2P_FLASH_LOOKUP_NS + fixed_ns
                + (MOVE_TABLE_LOOKUP_NS + COMPUTE_TABLE_LOOKUP_NS)
                * len(static))
            items = tuple(locations.items())
            location_items.append(items)
            hit_lpas.append(tuple(hits))
            statics.append(static)
            if len(items) == 1:
                (single_location, single_pages), = items
                movement_rows.append(
                    [move_table[(single_location, home)] * single_pages
                     for _, home, _, _, _, _ in static])
            else:
                row = []
                for _, home, _, _, _, _ in static:
                    total = 0.0
                    for location, pages in items:
                        total += move_table[(location, home)] * pages
                    row.append(total)
                movement_rows.append(row)
        return WaveBatch(
            instructions=instructions, source_runs=source_runs,
            location_items=location_items,
            hit_lpas=hit_lpas, collection_ns=collection_ns, static=statics,
            movement_rows=movement_rows,
            eviction_epoch=platform.eviction_epoch,
            mapping_version=platform.ssd.ftl.cache.version)

    def materialize(self, batch: WaveBatch, pos: int, now: float,
                    pending_producer_latency: float) -> InstructionFeatures:
        """The wave engine's :meth:`collect`: one member's feature vector.

        Called at the member's own decision time ``now``.  It replays the
        L2P hits recorded at precollect time (an LRU refresh only, so the
        mapping cache sees the sequential access order), charges the
        member's precollected collection latency, and reads the live
        terms -- queueing delay and contention penalty -- per candidate,
        in :meth:`collect`'s order.  The result is bit-identical to what
        :meth:`collect` would return at the same decision point.
        """
        platform = self.platform
        move_to_end = platform.ssd.ftl.cache._entries.move_to_end
        for lpa in batch.hit_lpas[pos]:
            move_to_end(lpa)
        collection_ns = batch.collection_ns[pos]
        monitor = platform.contention
        backends = platform.backends
        instruction = batch.instructions[pos]
        row = batch.movement_rows[pos]
        per_resource: Dict[ResourceLike, ResourceFeatures] = {}
        for index, (resource, home, supported, compute, queue,
                    channel_ns) in enumerate(batch.static[pos]):
            movement = row[index]
            per_resource[resource] = ResourceFeatures(
                resource, supported, compute, movement,
                queue._pending_latency / queue._parallelism,
                pending_producer_latency,
                monitor.penalty_ns(home, movement, backends[resource], now,
                                   channel_ns)
                if monitor is not None else 0.0)
        return InstructionFeatures(
            instruction.uid, instruction.op, dict(batch.location_items[pos]),
            per_resource, collection_ns, list(batch.source_runs[pos]))
