"""Host CPU compute model (outside-storage processing baseline).

Roofline-style analytical model of a Xeon Gold 5118-class CPU executing the
vectorized instruction stream after the operands have been brought to host
memory over PCIe.  Per-instruction latency is the maximum of the compute
time (SIMD throughput across all cores) and the memory-streaming time
(operands + result over the DDR4 bus), which reproduces the behaviour the
paper relies on: the host is fast for compute but bottlenecked by moving
SSD-resident data (Fig. 4, OSP bars).
"""

from __future__ import annotations

import math

from repro.common import DataLocation, OpType, ResourceLike, SimulationError
from repro.core.backends import ComputeBackend
from repro.host.config import HostCPUConfig

#: Per-SIMD-operation cycle costs on the host CPU (throughput cycles for one
#: full-width SIMD operation).
_CPU_CYCLES: dict = {
    OpType.MUL: 2.0, OpType.MAC: 2.0, OpType.DIV: 14.0,
    OpType.GATHER: 6.0, OpType.SCATTER: 6.0,
    OpType.REDUCE_ADD: 3.0, OpType.REDUCE_MAX: 3.0, OpType.REDUCE_MIN: 3.0,
    OpType.SHUFFLE: 1.5, OpType.CALL: 6.0, OpType.BRANCH: 1.5,
}


class HostCPUBackend(ComputeBackend):
    """Analytical host CPU model (OSP baseline engine).

    Host engines are not offload candidates -- the SSD offloader never
    targets them -- but exposing them through the same protocol lets the
    host runtime, energy accounting and contract tests treat every engine
    uniformly.  The utilization snapshot is the PCIe link all host-bound
    operands cross.
    """

    offloadable = False

    def __init__(self, resource: ResourceLike, pcie,
                 config: HostCPUConfig) -> None:
        self.config = config
        self.pcie = pcie
        super().__init__(resource, DataLocation.HOST, self.config.cores)
        # Memoized estimate points (pure in their arguments + immutable
        # config), mirroring the SSD backends' precomputed tables.
        self._latency_table: dict = {}
        self._energy_table: dict = {}

    def supports(self, op: OpType) -> bool:
        return True

    def operation_latency(self, op: OpType, size_bytes: int,
                          element_bits: int) -> float:
        key = (op, size_bytes, element_bits)
        cached = self._latency_table.get(key)
        if cached is not None:
            return cached
        if size_bytes <= 0:
            raise SimulationError("host CPU operation size must be positive")
        simd_ops = math.ceil(size_bytes / self.config.simd_width_bytes)
        compute_ns = (simd_ops * _CPU_CYCLES.get(op, 1.0) *
                      self.config.cycle_ns / self.config.cores)
        # Two source streams plus one destination stream through DRAM.
        memory_bytes = 3 * size_bytes
        memory_ns = (self.config.memory_latency_ns +
                     memory_bytes / self.config.memory_bandwidth_gbps)
        latency = max(compute_ns, memory_ns)
        self._latency_table[key] = latency
        return latency

    def operation_energy(self, op: OpType, size_bytes: int,
                         element_bits: int) -> float:
        key = (op, size_bytes, element_bits)
        cached = self._energy_table.get(key)
        if cached is not None:
            return cached
        latency_ns = self.operation_latency(op, size_bytes, element_bits)
        energy = latency_ns * self.config.active_power_w  # ns * W = nJ
        self._energy_table[key] = energy
        return energy

    def utilization(self, elapsed: float) -> float:
        return self.pcie.utilization(elapsed)
