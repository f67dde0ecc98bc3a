"""In-flash processing (IFP) compute backend.

Combines the Flash-Cosmos bitwise model and the Ares-Flash arithmetic
model into one computation resource.

Parallelism: every flash die can run an in-flash operation independently, so
a vector instruction that spans multiple pages spreads across dies.  The
platform layer models die contention through the IFP execution queue; this
backend reports the per-page latency and the die-level parallelism
available.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.common import DataLocation, OpType, ResourceLike, SimulationError
from repro.core.backends import ComputeBackend
from repro.ifp.aresflash import AresFlashUnit
from repro.ifp.flashcosmos import FlashCosmosUnit
from repro.ifp.isa import ARES_FLASH_OPS, FLASH_COSMOS_OPS, IFP_SUPPORTED_OPS
from repro.ssd.config import NANDConfig, SSDEnergyConfig


class IFPBackend(ComputeBackend):
    """In-flash processing resource combining Flash-Cosmos and Ares-Flash.

    Operands live in flash (in-place computation).  The utilization
    snapshot is the flash-die pool's occupancy by regular
    reads/programs/erases; in-flash operations do not reserve those dies
    -- their die-level parallelism is modelled by the IFP execution queue
    alone.  ``channels`` is the platform's
    :class:`~repro.ssd.flash_controller.FlashChannelSubsystem`.
    """

    def __init__(self, resource: ResourceLike, channels, nand: NANDConfig,
                 energy: SSDEnergyConfig) -> None:
        self.nand = nand
        self.energy_config = energy
        self.channels = channels
        self.flash_cosmos = FlashCosmosUnit(self.nand, self.energy_config)
        self.ares_flash = AresFlashUnit(self.nand, self.energy_config)
        super().__init__(resource, DataLocation.FLASH, self.die_parallelism)
        # Memoized per-page estimate points (pure in their arguments +
        # immutable config): the precomputed tables of Section 4.5.
        self._page_latency_table: dict = {}
        self._page_energy_table: dict = {}

    # -- Capability -----------------------------------------------------------

    def supports(self, op: OpType) -> bool:
        return op in IFP_SUPPORTED_OPS

    @property
    def page_bytes(self) -> int:
        """Data covered by one in-flash operation (one flash page)."""
        return self.nand.page_size_bytes

    @property
    def native_chunk_bytes(self) -> Optional[int]:
        return self.page_bytes

    @property
    def die_parallelism(self) -> int:
        """Dies that can execute in-flash operations concurrently."""
        return self.nand.channels * self.nand.dies_per_channel

    # -- Per-page latency and energy -------------------------------------------

    def page_operation_latency(self, op: OpType, element_bits: int,
                               operand_pages: int = 2) -> float:
        key = (op, element_bits, operand_pages)
        cached = self._page_latency_table.get(key)
        if cached is not None:
            return cached
        if op in FLASH_COSMOS_OPS:
            latency = self.flash_cosmos.operation(op, operand_pages).latency_ns
        elif op in ARES_FLASH_OPS:
            latency = self.ares_flash.operation(op, element_bits).latency_ns
        else:
            raise SimulationError(f"IFP does not support {op.value}")
        self._page_latency_table[key] = latency
        return latency

    def page_operation_energy(self, op: OpType, element_bits: int,
                              operand_pages: int = 2) -> float:
        key = (op, element_bits, operand_pages)
        cached = self._page_energy_table.get(key)
        if cached is not None:
            return cached
        if op in FLASH_COSMOS_OPS:
            energy = self.flash_cosmos.operation(op, operand_pages).energy_nj
        elif op in ARES_FLASH_OPS:
            energy = self.ares_flash.operation(op, element_bits).energy_nj
        else:
            raise SimulationError(f"IFP does not support {op.value}")
        self._page_energy_table[key] = energy
        return energy

    # -- Vector-level latency and energy ------------------------------------------

    def operation_latency(self, op: OpType, size_bytes: int,
                          element_bits: int, operand_pages: int = 2) -> float:
        """Latency of an operation over ``size_bytes`` of data.

        Pages are spread across dies; pages beyond the die count serialize
        in additional waves.
        """
        pages = max(1, math.ceil(size_bytes / self.page_bytes))
        waves = math.ceil(pages / self.die_parallelism)
        return waves * self.page_operation_latency(op, element_bits,
                                                   operand_pages)

    def operation_energy(self, op: OpType, size_bytes: int,
                         element_bits: int, operand_pages: int = 2) -> float:
        pages = max(1, math.ceil(size_bytes / self.page_bytes))
        return pages * self.page_operation_energy(op, element_bits,
                                                  operand_pages)

    def utilization(self, elapsed: float) -> float:
        return self.channels.die_utilization(elapsed)

    def execution_channel_bytes(self, op: OpType, size_bytes: int,
                                element_bits: int) -> float:
        """Flash-channel traffic an in-flash operation generates.

        Ares-Flash arithmetic (notably multiplication) shuttles partial
        products between the flash chips and the flash controller while
        it executes (Section 6.4): one page per partial product, i.e.
        ``element_bits`` page transfers for a multiply and one for an
        add/subtract.  Flash-Cosmos bitwise MWS needs no channel traffic
        beyond the command.
        """
        if op in (OpType.MUL, OpType.MAC):
            return float(element_bits * self.page_bytes)
        if op in (OpType.ADD, OpType.SUB):
            return float(self.page_bytes)
        return 0.0
