"""Ares-Flash: in-flash integer arithmetic via page-buffer latches.

Ares-Flash extends in-flash processing with integer arithmetic by
manipulating the sensing and data latches (S-latch / D-latch) in the flash
die's peripheral circuitry and using a ``shift_and_add`` primitive
(Section 2.2 / 4.3.2).  Addition/subtraction are bit-serial over the operand
width using latch transfers; multiplication loops shift-and-add over all
operand bits and, critically, requires frequent operand transfers between
the flash controller and the flash chips -- the reason the paper's Fig. 9/10
analysis shows Conduit avoiding IFP for multiplication-heavy phases.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import KIB, OpType, SimulationError
from repro.ifp.isa import ARES_FLASH_OPS
from repro.ssd.config import NANDConfig, SSDEnergyConfig


@dataclass
class AresFlashOperation:
    """One in-flash arithmetic operation."""

    op: OpType
    element_bits: int
    latch_steps: int
    controller_transfers: int
    latency_ns: float
    energy_nj: float


class AresFlashUnit:
    """Latency/energy model of Ares-Flash in-flash arithmetic."""

    def __init__(self, nand: NANDConfig = None,
                 energy: SSDEnergyConfig = None) -> None:
        self.nand = nand or NANDConfig()
        self.energy_config = energy or SSDEnergyConfig()

    @staticmethod
    def supports(op: OpType) -> bool:
        return op in ARES_FLASH_OPS

    def _plan(self, op: OpType, element_bits: int) -> tuple:
        """Return (latch_steps, controller_transfers) for one page of data."""
        if not self.supports(op):
            raise SimulationError(f"Ares-Flash does not support {op.value}")
        if element_bits <= 0:
            raise SimulationError("element width must be positive")
        if op in (OpType.ADD, OpType.SUB):
            # Bit-serial ripple: sense both operands once, then one latch
            # AND/XOR pair plus a latch transfer per bit for carry logic.
            return 3 * element_bits, 0
        # MUL: shift-and-add over all bits; each partial product needs latch
        # work plus a page round-trip through the flash controller to shift.
        return 4 * element_bits * element_bits, element_bits

    def operation(self, op: OpType, element_bits: int = 8
                  ) -> AresFlashOperation:
        latch_steps, transfers = self._plan(op, element_bits)
        sensing = 2 * self.nand.read_latency_ns  # sense both operand pages
        latch_ns = latch_steps * (self.nand.latch_transfer_latency_ns +
                                  self.nand.and_or_latency_ns)
        transfer_ns = transfers * (self.nand.dma_latency_ns * 2)
        latency = sensing + latch_ns + transfer_ns
        page_kb = self.nand.page_size_bytes / KIB
        energy = (2 * self.energy_config.flash_read_nj_per_channel +
                  latch_steps *
                  self.energy_config.ifp_latch_transfer_nj_per_kb * page_kb +
                  transfers * 2 * self.energy_config.dma_nj_per_channel)
        return AresFlashOperation(op=op, element_bits=element_bits,
                                  latch_steps=latch_steps,
                                  controller_transfers=transfers,
                                  latency_ns=latency, energy_nj=energy)
