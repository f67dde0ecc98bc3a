"""Embedded controller core (in-storage processing) compute model.

Models the ARM Cortex-R8 cores in the SSD controller (Table 2: five cores at
1.5 GHz) executing offloaded computations through MVE SIMD.  The paper
dedicates one core to offloaded computation and keeps the remaining cores
for FTL work, host communication and Conduit's offloading/transformation
tasks (Section 4.3.2, footnote 3), so the default compute pool has a single
core.

The per-instruction latency model:

``latency = beats * (cycles_per_beat(op) + memory_cycles) * cycle_time``

where ``beats = ceil(vector_bytes / simd_width_bytes)`` and ``memory_cycles``
accounts for the loads/stores that feed each beat from SSD DRAM.  The narrow
(32-bit) datapath is the reason ISP's SIMD throughput is so much lower than
PuD-SSD's or IFP's, which is the limitation the paper's case study
highlights (Section 2.2 / 3.1).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.common import DataLocation, OpType, ResourceLike, SimulationError
from repro.core.backends import ComputeBackend
from repro.isp.isa import ISP_SUPPORTED_OPS, cycles_per_beat
from repro.ssd.config import ControllerConfig, SSDEnergyConfig


class ISPBackend(ComputeBackend):
    """The controller cores available for offloaded computation.

    The default roster registers one backend for the whole compute-core
    pool (queue parallelism = ``compute_cores``); a multi-core platform
    configuration registers one backend per core (``isp[0..n)``), each with
    its own single-slot queue, so per-core contention becomes visible to
    the cost function.

    ISP operands are staged in SSD DRAM (the controller SRAM only holds
    working registers/tiles, Section 3.1 footnote 2), hence the home
    location.
    """

    #: Load/store cycles that accompany every SIMD beat (two operand loads
    #: plus one result store against the SSD DRAM / local buffers).
    MEMORY_CYCLES_PER_BEAT = 3.0

    def __init__(self, resource: ResourceLike, config: ControllerConfig,
                 energy: SSDEnergyConfig,
                 queue_parallelism: Optional[int] = None) -> None:
        self.config = config
        self.energy_config = energy
        if queue_parallelism is None:
            queue_parallelism = self.config.compute_cores
        super().__init__(resource, DataLocation.SSD_DRAM, queue_parallelism)
        # Memoized (op, size, bits) -> latency/energy points: the model is
        # a pure function of its arguments and the immutable config, so
        # the cache realizes the paper's precomputed estimate tables
        # (Section 4.5) instead of re-deriving each point per lookup.
        self._latency_table: dict = {}
        self._energy_table: dict = {}

    # -- Capability / estimation ---------------------------------------------------

    def supports(self, op: OpType) -> bool:
        return op in ISP_SUPPORTED_OPS

    def operation_latency(self, op: OpType, size_bytes: int,
                          element_bits: int) -> float:
        """Latency of one operation over ``size_bytes`` on one core."""
        key = (op, size_bytes, element_bits)
        cached = self._latency_table.get(key)
        if cached is not None:
            return cached
        if size_bytes <= 0:
            raise SimulationError("ISP operation size must be positive")
        beats = max(1, math.ceil(size_bytes / self.config.simd_width_bytes))
        cycles = beats * (cycles_per_beat(op) + self.MEMORY_CYCLES_PER_BEAT)
        # Narrower elements pack more lanes per beat but do not change the
        # beat count; wider elements (64-bit) double the effective beats.
        if element_bits > 32:
            cycles *= element_bits / 32.0
        latency = cycles * self.config.cycle_ns
        self._latency_table[key] = latency
        return latency

    def operation_energy(self, op: OpType, size_bytes: int,
                         element_bits: int) -> float:
        key = (op, size_bytes, element_bits)
        cached = self._energy_table.get(key)
        if cached is not None:
            return cached
        latency_ns = self.operation_latency(op, size_bytes, element_bits)
        power_w = self.energy_config.controller_core_active_power_mw / 1e3
        energy = latency_ns * power_w  # ns * W = nJ
        self._energy_table[key] = energy
        return energy

    def utilization(self, elapsed: float) -> float:
        return self.queue.utilization(elapsed)
