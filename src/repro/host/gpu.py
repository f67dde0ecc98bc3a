"""Host GPU compute model (outside-storage processing baseline).

Analytical model of an NVIDIA A100 executing the vectorized instruction
stream.  The GPU has enormous SIMD throughput and HBM bandwidth, so for the
data-parallel polybench kernels it approaches (and sometimes beats)
DM-Offloading in the paper's motivation study (Fig. 5); its weakness is that
every operand must cross PCIe from the SSD and its power draw is high
(Fig. 7b), both of which the experiment harness charges separately.
"""

from __future__ import annotations

import math

from repro.common import DataLocation, OpType, ResourceLike, SimulationError
from repro.core.backends import ComputeBackend
from repro.host.config import HostGPUConfig

_GPU_CYCLES: dict = {
    OpType.MUL: 1.0, OpType.MAC: 1.0, OpType.DIV: 8.0,
    OpType.GATHER: 4.0, OpType.SCATTER: 4.0,
    OpType.REDUCE_ADD: 2.0, OpType.REDUCE_MAX: 2.0, OpType.REDUCE_MIN: 2.0,
    OpType.SHUFFLE: 1.0, OpType.CALL: 4.0, OpType.BRANCH: 2.0,
    OpType.SCALAR: 4.0,
}


class HostGPUBackend(ComputeBackend):
    """Analytical host GPU model (OSP baseline engine).

    Like the host CPU, the GPU is modelled through the backend protocol but
    excluded from the SSD offloader's candidate set; operands reach it over
    PCIe, which is also its utilization snapshot.
    """

    offloadable = False

    def __init__(self, resource: ResourceLike, pcie,
                 config: HostGPUConfig) -> None:
        super().__init__(resource, DataLocation.HOST)
        self.config = config
        self.pcie = pcie
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
            raise SimulationError("GPU operation size must be positive")
        element_bytes = max(1, element_bits // 8)
        elements = size_bytes // element_bytes
        cycles = _GPU_CYCLES.get(op, 1.0)
        if op in (OpType.SCALAR, OpType.BRANCH, OpType.CALL):
            # Control-intensive code does not spread across SIMT lanes; it
            # effectively runs serially on a single SM at GPU clock rate.
            latency = elements * cycles * self.config.cycle_ns
        else:
            waves = math.ceil(elements / self.config.total_lanes)
            compute_ns = waves * cycles * self.config.cycle_ns
            memory_bytes = 3 * size_bytes
            memory_ns = memory_bytes / self.config.hbm_bandwidth_gbps
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
        energy = latency_ns * self.config.active_power_w
        self._energy_table[key] = energy
        return energy

    def utilization(self, elapsed: float) -> float:
        return self.pcie.utilization(elapsed)
