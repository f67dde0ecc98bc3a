"""Processing-using-DRAM in the SSD (PuD-SSD).

Models the compute capability that SIMDRAM / MIMDRAM / Proteus provide on
top of the Ambit substrate (Section 2.2): bulk bitwise operations via
(triple-)row activation, RowClone bulk copy, and bit-serial arithmetic built
from majority/AND/OR/NOT steps.

The paper states PuD-SSD supports 16 operations including arithmetic,
predication and relational operations (Section 4.3.2, "Operation Type").
Operands must reside in SSD DRAM; moving them there from flash is the
responsibility of the platform's data-movement engine, not of this model.

Latency model
-------------
* A bulk bitwise operation on one row pair costs ``Tbbop`` (49 ns).
* An n-bit addition costs ``add_steps_per_bit * n`` bbop steps
  (bit-serial carry propagation, SIMDRAM-style).
* An n-bit multiplication costs ``mul_steps_per_bit_squared * n^2`` steps
  (shift-and-add over bit-serial adders).
* Rows in different banks operate concurrently, so a vector spanning
  multiple rows is spread over the banks.
"""

from __future__ import annotations

import math
from typing import FrozenSet, Optional

from repro.common import DataLocation, OpType, ResourceLike, SimulationError
from repro.core.backends import ComputeBackend
from repro.dram.config import DRAMConfig
from repro.dram.dram import DRAMDevice


#: Operations PuD-SSD supports natively (16 operations; SIMDRAM/MIMDRAM/
#: Proteus ISA extensions such as ``bbop_op``).
PUD_SUPPORTED_OPS: FrozenSet[OpType] = frozenset({
    OpType.AND, OpType.OR, OpType.XOR, OpType.NOT, OpType.NAND, OpType.NOR,
    OpType.MAJ, OpType.SHL, OpType.SHR,
    OpType.ADD, OpType.SUB, OpType.MUL, OpType.MAC,
    OpType.CMP_EQ, OpType.CMP_LT, OpType.CMP_GT, OpType.SELECT,
    OpType.COPY, OpType.REDUCE_ADD,
})


class PuDBackend(ComputeBackend):
    """Processing-using-DRAM execution over a :class:`DRAMDevice`.

    The SSD's own PuD unit computes in the SSD DRAM.  Queue parallelism
    follows the bank count (rows in different banks operate concurrently);
    the utilization snapshot is the DRAM data bus, which PuD operations
    share with the data-movement engine.
    """

    def __init__(self, resource: ResourceLike, dram: DRAMDevice,
                 home_location: DataLocation = DataLocation.SSD_DRAM
                 ) -> None:
        self.dram = dram
        self.config: DRAMConfig = dram.config
        super().__init__(resource, home_location, self.config.banks)
        # Memoized estimate points (pure in their arguments + immutable
        # config): the precomputed latency/energy tables of Section 4.5.
        self._steps_table: dict = {}
        self._latency_table: dict = {}
        self._energy_table: dict = {}

    # -- Capability and latency estimation ---------------------------------------

    def supports(self, op: OpType) -> bool:
        return op in PUD_SUPPORTED_OPS

    @property
    def row_bytes(self) -> int:
        """Maximum data one bbop step covers (one DRAM row)."""
        return self.config.row_size_bytes

    @property
    def native_chunk_bytes(self) -> Optional[int]:
        return self.row_bytes

    def steps_for(self, op: OpType, element_bits: int) -> int:
        """Number of bbop row-activation steps one row-worth of data needs."""
        cached = self._steps_table.get((op, element_bits))
        if cached is not None:
            return cached
        steps = self._steps_for(op, element_bits)
        self._steps_table[(op, element_bits)] = steps
        return steps

    def _steps_for(self, op: OpType, element_bits: int) -> int:
        if not self.supports(op):
            raise SimulationError(f"PuD-SSD does not support {op.value}")
        if op in (OpType.COPY,):
            return 1  # RowClone: two back-to-back activations, ~1 step
        if op.is_bitwise:
            # AND/OR/NOT/XOR/MAJ map to 1-3 triple-row activations.
            return 3 if op in (OpType.XOR, OpType.NAND, OpType.NOR) else 1
        if op in (OpType.ADD, OpType.SUB, OpType.CMP_EQ, OpType.CMP_LT,
                  OpType.CMP_GT, OpType.SELECT, OpType.REDUCE_ADD):
            return max(1, int(math.ceil(
                self.config.add_steps_per_bit * element_bits)))
        if op in (OpType.MUL, OpType.MAC):
            return max(1, int(math.ceil(
                self.config.mul_steps_per_bit_squared * element_bits ** 2)))
        if op in (OpType.SHL, OpType.SHR):
            return max(1, element_bits // 2)
        raise SimulationError(f"no PuD step model for {op.value}")

    def operation_latency(self, op: OpType, size_bytes: int,
                          element_bits: int) -> float:
        """Uncontended latency of an operation over ``size_bytes`` of data.

        Rows are spread across the available banks, which operate in
        parallel; rows beyond the bank count serialize.
        """
        key = (op, size_bytes, element_bits)
        cached = self._latency_table.get(key)
        if cached is not None:
            return cached
        rows = max(1, math.ceil(size_bytes / self.row_bytes))
        steps = self.steps_for(op, element_bits)
        waves = math.ceil(rows / self.config.banks)
        latency = waves * steps * self.config.bbop_latency_ns
        self._latency_table[key] = latency
        return latency

    def operation_energy(self, op: OpType, size_bytes: int,
                         element_bits: int) -> float:
        key = (op, size_bytes, element_bits)
        cached = self._energy_table.get(key)
        if cached is not None:
            return cached
        rows = max(1, math.ceil(size_bytes / self.row_bytes))
        steps = self.steps_for(op, element_bits)
        energy = rows * steps * self.config.bbop_energy_nj
        self._energy_table[key] = energy
        return energy

    # -- Execution (reserves banks) ----------------------------------------------

    def execute(self, now: float, op: OpType, size_bytes: int,
                element_bits: int) -> None:
        """Occupy the DRAM banks the operation's rows map to.

        A regular DRAM access to one of those banks issued while the
        operation runs waits for it to finish.
        """
        if size_bytes <= 0:
            raise SimulationError("PuD operation size must be positive")
        rows = max(1, math.ceil(size_bytes / self.row_bytes))
        steps = self.steps_for(op, element_bits)
        banks = self.dram.banks
        for row_index in range(rows):
            banks[row_index % self.config.banks].bulk_bitwise_operation(
                now, steps)

    def utilization(self, elapsed: float) -> float:
        return self.dram.utilization(elapsed)
