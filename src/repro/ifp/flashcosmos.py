"""Flash-Cosmos: in-flash bulk bitwise operations via multi-wordline sensing.

Flash-Cosmos performs a bitwise AND of up to 48 operand pages stored in the
same block by simultaneously activating their wordlines during a single
sensing operation, and a bitwise OR of up to 4 operand pages in different
blocks of the same plane (Section 2.2 / 5.3).  The result lands in the page
buffer's sensing latch, so no page data crosses the flash channel.

Timing: one multi-wordline sensing costs a page read (tR, 22.5 us in SLC
mode) plus the MWS combination latency (tAND/OR = 20 ns; tXOR = 30 ns).
Energy: Eread per channel plus 10-20 nJ/KB for the bitwise combination
(Table 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common import KIB, OpType, SimulationError
from repro.ifp.isa import (FLASH_COSMOS_OPS, MAX_AND_OPERANDS_PER_BLOCK,
                           MAX_OR_OPERANDS_PER_PLANE)
from repro.ssd.config import NANDConfig, SSDEnergyConfig


@dataclass
class MWSOperation:
    """One multi-wordline-sensing operation (for traces and tests)."""

    op: OpType
    operand_pages: int
    sensing_rounds: int
    latency_ns: float
    energy_nj: float


class FlashCosmosUnit:
    """Latency/energy model of Flash-Cosmos bulk bitwise operations."""

    def __init__(self, nand: NANDConfig = None,
                 energy: SSDEnergyConfig = None) -> None:
        self.nand = nand or NANDConfig()
        self.energy_config = energy or SSDEnergyConfig()

    @staticmethod
    def supports(op: OpType) -> bool:
        return op in FLASH_COSMOS_OPS

    def sensing_rounds(self, op: OpType, operand_pages: int) -> int:
        """How many multi-wordline sensings an operation needs.

        AND combines up to 48 same-block operands per sensing; OR combines
        up to 4 same-plane operands per sensing; XOR/NOT need one sensing
        per operand pair (XOR is built from two sensings plus latch logic).
        """
        if not self.supports(op):
            raise SimulationError(f"Flash-Cosmos does not support {op.value}")
        operand_pages = max(1, operand_pages)
        if op in (OpType.AND, OpType.NAND):
            return max(1, math.ceil(operand_pages /
                                    MAX_AND_OPERANDS_PER_BLOCK))
        if op in (OpType.OR, OpType.NOR):
            return max(1, math.ceil(operand_pages /
                                    MAX_OR_OPERANDS_PER_PLANE))
        if op is OpType.XOR:
            return max(1, operand_pages - 1) * 2
        return 1  # NOT

    def _combination_latency(self, op: OpType) -> float:
        if op is OpType.XOR:
            return self.nand.xor_latency_ns
        return self.nand.and_or_latency_ns

    def operation(self, op: OpType, operand_pages: int = 2) -> MWSOperation:
        """Build the MWS operation descriptor (latency + energy)."""
        rounds = self.sensing_rounds(op, operand_pages)
        latency = rounds * (self.nand.read_latency_ns +
                            self._combination_latency(op))
        page_kb = self.nand.page_size_bytes / KIB
        if op is OpType.XOR:
            combine_nj = self.energy_config.ifp_xor_nj_per_kb * page_kb
        else:
            combine_nj = self.energy_config.ifp_and_or_nj_per_kb * page_kb
        energy = rounds * (self.energy_config.flash_read_nj_per_channel +
                           combine_nj)
        return MWSOperation(op=op, operand_pages=operand_pages,
                            sensing_rounds=rounds, latency_ns=latency,
                            energy_nj=energy)
