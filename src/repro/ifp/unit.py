"""Combined in-flash processing (IFP) unit.

Wraps the Flash-Cosmos bitwise model and the Ares-Flash arithmetic model
into one computation resource with the interface the runtime offloader
expects (``supports`` / ``operation_latency`` / ``operation_energy`` /
``execute``), matching the interfaces of :class:`repro.isp.EmbeddedCoreComplex`
and :class:`repro.dram.PuDUnit`.

Parallelism: every flash die can run an in-flash operation independently, so
a vector instruction that spans multiple pages spreads across dies.  The
platform layer models die contention through the IFP execution queue; this
unit reports the per-page latency and the die-level parallelism available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.common import DataLocation, OpType, ResourceLike, SimulationError
from repro.core.backends import ComputeBackend
from repro.ifp.aresflash import AresFlashUnit
from repro.ifp.flashcosmos import FlashCosmosUnit
from repro.ifp.isa import ARES_FLASH_OPS, FLASH_COSMOS_OPS, IFP_SUPPORTED_OPS
from repro.ssd.config import NANDConfig, SSDEnergyConfig


@dataclass
class IFPOperationTiming:
    start_ns: float
    end_ns: float
    pages: int
    waves: int

    @property
    def latency_ns(self) -> float:
        return self.end_ns - self.start_ns


class IFPUnit:
    """In-flash processing resource combining Flash-Cosmos and Ares-Flash."""

    def __init__(self, nand: NANDConfig = None,
                 energy: SSDEnergyConfig = None) -> None:
        self.nand = nand or NANDConfig()
        self.energy_config = energy or SSDEnergyConfig()
        self.flash_cosmos = FlashCosmosUnit(self.nand, self.energy_config)
        self.ares_flash = AresFlashUnit(self.nand, self.energy_config)
        self.operations = 0
        self.total_busy_ns = 0.0
        self.energy_nj = 0.0
        # Memoized per-page estimate points (pure in their arguments +
        # immutable config): the precomputed tables of Section 4.5.
        self._page_latency_table: dict = {}
        self._page_energy_table: dict = {}

    # -- Capability -----------------------------------------------------------

    @staticmethod
    def supports(op: OpType) -> bool:
        return op in IFP_SUPPORTED_OPS

    @property
    def page_bytes(self) -> int:
        """Data covered by one in-flash operation (one flash page)."""
        return self.nand.page_size_bytes

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

    # -- Execution ------------------------------------------------------------------

    def execute(self, now: float, op: OpType, size_bytes: int,
                element_bits: int, operand_pages: int = 2
                ) -> IFPOperationTiming:
        pages = max(1, math.ceil(size_bytes / self.page_bytes))
        waves = math.ceil(pages / self.die_parallelism)
        latency = self.operation_latency(op, size_bytes, element_bits,
                                         operand_pages)
        energy = self.operation_energy(op, size_bytes, element_bits,
                                       operand_pages)
        if op in FLASH_COSMOS_OPS:
            self.flash_cosmos.operations += pages
        else:
            self.ares_flash.operations += pages
        self.operations += 1
        self.total_busy_ns += latency
        self.energy_nj += energy
        return IFPOperationTiming(start_ns=now, end_ns=now + latency,
                                  pages=pages, waves=waves)


class IFPBackend(ComputeBackend):
    """Compute backend adapting :class:`IFPUnit`.

    Operands live in flash (in-place computation).  The utilization
    snapshot is the flash-die pool's occupancy by regular
    reads/programs/erases; in-flash operations do not reserve those dies
    -- their die-level parallelism is modelled by the IFP execution queue
    alone.  ``channels`` is the platform's
    :class:`~repro.ssd.flash_controller.FlashChannelSubsystem`.
    """

    def __init__(self, resource: ResourceLike, unit: IFPUnit,
                 channels) -> None:
        super().__init__(resource, DataLocation.FLASH,
                         unit.die_parallelism)
        self.unit = unit
        self.channels = channels

    @property
    def native_chunk_bytes(self) -> Optional[int]:
        return self.unit.page_bytes

    def supports(self, op: OpType) -> bool:
        return self.unit.supports(op)

    def operation_latency(self, op: OpType, size_bytes: int,
                          element_bits: int) -> float:
        return self.unit.operation_latency(op, size_bytes, element_bits)

    def operation_energy(self, op: OpType, size_bytes: int,
                         element_bits: int) -> float:
        return self.unit.operation_energy(op, size_bytes, element_bits)

    def execute(self, now: float, op: OpType, size_bytes: int,
                element_bits: int) -> IFPOperationTiming:
        return self.unit.execute(now, op, size_bytes, element_bits)

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
            return float(element_bits * self.unit.page_bytes)
        if op in (OpType.ADD, OpType.SUB):
            return float(self.unit.page_bytes)
        return 0.0
