"""End-to-end execution engines.

Two engines live here:

* :class:`ConduitRuntime` -- the NDP path.  It places the dataset on flash,
  ships the Conduit binary to the SSD through the NVMe firmware-update
  commands, switches the SSD into computation mode, and then drives the SSD
  offloader over the instruction stream, respecting data dependencies and
  letting the per-resource execution queues, shared buses and coherence
  machinery determine timing.  This is the engine used by Conduit itself,
  the Ideal upper bound, BW-/DM-Offloading and the single-resource NDP
  baselines (they only differ in the offloading policy).
* :class:`HostRuntime` -- the outside-storage-processing (OSP) path used by
  the host CPU and GPU baselines: operands stream from the SSD to the host
  over NVMe/PCIe (through a capacity-limited host page cache) and compute
  runs on the analytical host models.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.common import DataLocation, Resource, SimulationError
from repro.core.compiler.binary import BinaryEncoder, transfer_binary
from repro.core.compiler.ir import VectorProgram
from repro.core.compiler.waves import wave_plan
from repro.core.layout import ArrayLayout
from repro.core.metrics import (ExecutionBreakdown, ExecutionResult,
                                InstructionRecord)
from repro.core.offload.offloader import SSDOffloader
from repro.core.offload.policies import OffloadingPolicy
from repro.core.platform import PlatformConfig, SSDPlatform
from repro.ssd.events import Server

#: Maximum number of dispatched-but-incomplete instructions.  The
#: offloader core issues in order and stalls once this window is full,
#: which bounds how far dispatch runs ahead of execution (and therefore how
#: large the queueing-delay estimates can grow).
MAX_OUTSTANDING = 64


def _place_program(platform: SSDPlatform, program: VectorProgram, *,
                   colocate: bool) -> ArrayLayout:
    """Lay ``program``'s arrays out on contiguous logical pages (in name
    order) and place the dataset on flash.

    ``colocate`` packs each array's pages into block-sized groups so
    in-flash bitwise operations find their operands in one block
    (Flash-Cosmos layout constraint, Section 4.4); the host path stripes.
    """
    if not program.instructions:
        raise SimulationError("cannot execute an empty program")
    layout = ArrayLayout(platform.page_size)
    layout.place_all(sorted(program.arrays.values(),
                            key=lambda spec: spec.name))
    groups = None
    if colocate:
        groups = layout.colocation_groups(
            platform.config.ssd.nand.pages_per_block)
    platform.setup_dataset(layout.all_lpas(), colocated_groups=groups)
    return layout


def _result(platform: SSDPlatform, workload: str, policy: str,
            total_time_ns: float, records: List[InstructionRecord],
            **overheads: float) -> ExecutionResult:
    """Assemble one run's :class:`ExecutionResult` from the platform's
    energy and data-movement accounting."""
    movement = platform.movement
    breakdown = ExecutionBreakdown(
        compute_ns=sum(record.compute_ns for record in records),
        host_data_movement_ns=movement.host_latency_ns,
        internal_data_movement_ns=max(
            0.0, movement.internal_latency_ns -
            movement.flash_read_latency_ns),
        flash_read_ns=movement.flash_read_latency_ns)
    return ExecutionResult(
        workload=workload, policy=policy, total_time_ns=total_time_ns,
        records=records, energy=platform.energy.breakdown(),
        breakdown=breakdown, maintenance=platform.maintenance_stats(),
        **overheads)


class ConduitRuntime:
    """Executes a vectorized program on the NDP-capable SSD platform.

    Operand arrays are always placed colocated per block for IFP.
    """

    def __init__(self, platform: Optional[SSDPlatform] = None) -> None:
        self.platform = platform or SSDPlatform()

    def _ship_binary(self, program: VectorProgram) -> float:
        """Model the one-time binary download over NVMe."""
        binary = BinaryEncoder().encode(program)
        return transfer_binary(self.platform.ssd.nvme, binary, now=0.0)

    # -- Execution ----------------------------------------------------------------

    def execute(self, program: VectorProgram, policy: OffloadingPolicy,
                workload_name: Optional[str] = None) -> ExecutionResult:
        """Execute ``program`` under ``policy``; return the full result."""
        platform = self.platform
        layout = _place_program(platform, program, colocate=True)
        start_ns = self._ship_binary(program)
        platform.ssd.enter_computation_mode()

        offloader = SSDOffloader(platform, layout, policy)
        records: List[InstructionRecord] = []
        if platform.config.batched_offload:
            makespan = self._drive_waves(program, layout, offloader, records,
                                         start_ns)
        else:
            makespan = self._drive_instructions(program, offloader,
                                                records, start_ns)

        platform.ssd.enter_regular_io_mode()
        energy_config = platform.config.ssd.energy
        platform.energy.charge_static(
            makespan - start_ns,
            energy_config.ssd_active_power_w + energy_config.host_idle_power_w,
            label="system-static")
        return _result(platform, workload_name or program.name, policy.name,
                       makespan - start_ns, records,
                       offload_overhead_avg_ns=offloader.average_overhead_ns,
                       offload_overhead_max_ns=offloader.max_overhead_ns)

    # -- Dispatch loops ------------------------------------------------------------

    def _drive_instructions(self, program: VectorProgram,
                            offloader: SSDOffloader,
                            records: List[InstructionRecord],
                            start_ns: float) -> float:
        """The per-instruction dispatch loop (the default engine)."""
        platform = self.platform
        completion: Dict[int, float] = {}
        outstanding: List[float] = []  # completion times, kept as a heap
        makespan = start_ns
        completion_get = completion.get
        dispatch_core = platform.dispatch_core
        offload = offloader.offload
        heappush, heappop = heapq.heappush, heapq.heappop
        append_record = records.append
        for instruction in program.instructions:
            deps_ready = start_ns
            for d in instruction.depends_on:
                t = completion_get(d)
                if t is not None and t > deps_ready:
                    deps_ready = t
            # The offloader core issues instructions in order; its current
            # position in virtual time is when this instruction arrives.
            free_at = dispatch_core._free_at
            arrival = start_ns if start_ns >= free_at else free_at
            # The dispatch window bounds how far issue runs ahead of
            # execution: once it is full, dispatch stalls until the oldest
            # outstanding instruction completes.
            while len(outstanding) >= MAX_OUTSTANDING:
                oldest = heappop(outstanding)
                if oldest > arrival:
                    arrival = oldest
            decision = offload(instruction, arrival_ns=arrival,
                               deps_ready_ns=deps_ready,
                               elapsed_ns=makespan if makespan > 1.0 else 1.0)
            end_ns = decision.end_ns
            heappush(outstanding, end_ns)
            completion[instruction.uid] = end_ns
            if end_ns > makespan:
                makespan = end_ns
            append_record(InstructionRecord(
                instruction.uid, instruction.op, decision.resource,
                decision.dispatch_ns, decision.ready_ns, decision.start_ns,
                end_ns, decision.compute_ns, decision.data_movement_ns,
                decision.overhead_ns))
        return makespan

    def _drive_waves(self, program: VectorProgram, layout: ArrayLayout,
                     offloader: SSDOffloader,
                     records: List[InstructionRecord],
                     start_ns: float) -> float:
        """Wave-batched dispatch, opt-in via
        ``PlatformConfig.batched_offload=True``.

        Same in-order, windowed issue semantics as
        :meth:`_drive_instructions`; the only difference is that feature
        collection is front-loaded per dependence-free, page-disjoint wave
        (:func:`wave_plan`).  Each member's feature vector is materialized
        from the precollected batch at its decision time and goes through
        the same policy ``choose`` and dispatch code as the
        per-instruction engine, so results are bit-identical
        (hazard-counter fallback included).  Kept only until the
        benchmark tracer stops reading the wave entry points by name.
        """
        platform = self.platform
        plan = wave_plan(program, layout)
        completion: Dict[int, float] = {}
        outstanding: List[float] = []
        makespan = start_ns
        completion_get = completion.get
        dispatch_core = platform.dispatch_core
        begin_wave = offloader.begin_wave
        offload_member = offloader.offload_member
        heappush, heappop = heapq.heappush, heapq.heappop
        append_record = records.append
        wave_sources = plan.wave_sources
        for wave_index, members in enumerate(plan.wave_instructions):
            batch = begin_wave(members, wave_sources[wave_index])
            for pos, instruction in enumerate(members):
                deps_ready = start_ns
                for d in instruction.depends_on:
                    t = completion_get(d)
                    if t is not None and t > deps_ready:
                        deps_ready = t
                free_at = dispatch_core._free_at
                arrival = start_ns if start_ns >= free_at else free_at
                while len(outstanding) >= MAX_OUTSTANDING:
                    oldest = heappop(outstanding)
                    if oldest > arrival:
                        arrival = oldest
                decision = offload_member(
                    batch, pos, instruction, arrival_ns=arrival,
                    deps_ready_ns=deps_ready,
                    elapsed_ns=makespan if makespan > 1.0 else 1.0)
                end_ns = decision.end_ns
                heappush(outstanding, end_ns)
                completion[instruction.uid] = end_ns
                if end_ns > makespan:
                    makespan = end_ns
                append_record(InstructionRecord(
                    instruction.uid, instruction.op, decision.resource,
                    decision.dispatch_ns, decision.ready_ns,
                    decision.start_ns, end_ns, decision.compute_ns,
                    decision.data_movement_ns, decision.overhead_ns))
        return makespan


class HostRuntime:
    """Executes a vectorized program on the host CPU or GPU (OSP baseline).

    Operand arrays are striped over the flash channels, never colocated.
    """

    def __init__(self, platform: Optional[SSDPlatform] = None) -> None:
        self.platform = platform or SSDPlatform()

    def execute(self, program: VectorProgram, device: Resource,
                workload_name: Optional[str] = None) -> ExecutionResult:
        if device not in (Resource.HOST_CPU, Resource.HOST_GPU):
            raise SimulationError(f"{device} is not a host device")
        platform = self.platform
        layout = _place_program(platform, program, colocate=False)

        compute_server = Server(f"{device.value}-pipeline")
        completion: Dict[int, float] = {}
        records: List[InstructionRecord] = []
        makespan = 0.0
        run_of = layout.page_run_of
        completion_get = completion.get
        ensure_runs_at = platform.ensure_runs_at
        backend = platform.backends._backends[device]
        host = DataLocation.HOST
        mark_produced_run = platform.mark_produced_run
        reserve = compute_server.reserve
        append_record = records.append
        for instruction in program.instructions:
            deps_ready = 0.0
            for d in instruction.depends_on:
                t = completion_get(d)
                if t is not None and t > deps_ready:
                    deps_ready = t
            element_bits = instruction.element_bits
            # Stream operand runs to host memory over NVMe / PCIe.
            runs = [run_of(ref, element_bits)
                    for ref in instruction.array_sources]
            dm_end = ensure_runs_at(deps_ready, runs, host)
            op = instruction.op
            size_bytes = instruction.size_bytes
            compute = backend.operation_latency(op, size_bytes, element_bits)
            reservation = reserve(
                dm_end if dm_end >= deps_ready else deps_ready, compute)
            backend.execute(reservation.start, op, size_bytes, element_bits)
            platform.energy.add_compute(device, backend.operation_energy(
                op, size_bytes, element_bits))
            if instruction.dest is not None:
                mark_produced_run(reservation.end,
                                  run_of(instruction.dest, element_bits),
                                  host)
            end_ns = reservation.end
            completion[instruction.uid] = end_ns
            if end_ns > makespan:
                makespan = end_ns
            append_record(InstructionRecord(
                instruction.uid, op, device, deps_ready, dm_end,
                reservation.start, end_ns, compute, dm_end - deps_ready,
                0.0))

        platform.energy.charge_static(
            makespan, platform.config.ssd.energy.ssd_active_power_w,
            label="ssd-static")
        name = "CPU" if device is Resource.HOST_CPU else "GPU"
        return _result(platform, workload_name or program.name, name,
                       makespan, records)
