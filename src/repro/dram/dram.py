"""SSD-internal DRAM device.

Combines the per-bank models with a shared data bus so that both regular
accesses (the FTL caching pages / metadata in DRAM) and bulk data movement
between flash and DRAM contend realistically for DRAM bandwidth.  This is
the substrate PuD-SSD (:mod:`repro.dram.pud`) computes on.
"""

from __future__ import annotations

from typing import List

from repro.common import SimulationError
from repro.dram.bank import DRAMBank
from repro.dram.config import DRAMConfig
from repro.ssd.events import SharedBus


class DRAMDevice:
    """The SSD's LPDDR4 DRAM: banks plus a shared channel bus."""

    def __init__(self, config: DRAMConfig = None) -> None:
        self.config = config or DRAMConfig()
        self.banks: List[DRAMBank] = [DRAMBank(i, self.config)
                                      for i in range(self.config.banks)]
        self.bus = SharedBus("ssd-dram-bus",
                             self.config.bandwidth_bytes_per_ns)
        self.bytes_read = 0
        self.bytes_written = 0

    # -- Address helpers --------------------------------------------------------

    def bank_of(self, address: int) -> int:
        """Bank interleaving: consecutive rows map to consecutive banks."""
        row = address // self.config.row_size_bytes
        return row % self.config.banks

    def row_of(self, address: int) -> int:
        row = address // self.config.row_size_bytes
        return row // self.config.banks

    # -- Data accesses -----------------------------------------------------------

    def read(self, now: float, address: int, size_bytes: int) -> float:
        """Read ``size_bytes`` starting at ``address``; return the end time."""
        return self._access(now, address, size_bytes, is_write=False)

    def write(self, now: float, address: int, size_bytes: int) -> float:
        """Write ``size_bytes`` starting at ``address``; return the end time."""
        return self._access(now, address, size_bytes, is_write=True)

    def _access(self, now: float, address: int, size_bytes: int, *,
                is_write: bool) -> float:
        if size_bytes <= 0:
            raise SimulationError("DRAM access size must be positive")
        if address < 0 or address + size_bytes > self.config.capacity_bytes:
            raise SimulationError("DRAM access out of range")
        bank = self.banks[self.bank_of(address)]
        # Row activations for every touched row, then stream over the bus.
        first_row = self.row_of(address)
        last_row = self.row_of(address + size_bytes - 1)
        finish = now
        for row in range(first_row, last_row + 1):
            finish = bank.access(finish, row % self.config.rows_per_bank)
        if is_write:
            self.bytes_written += size_bytes
        else:
            self.bytes_read += size_bytes
        return self.bus.transfer(finish, size_bytes)

    # -- Estimation helpers ---------------------------------------------------------

    def uncontended_access_latency(self, size_bytes: int) -> float:
        return (self.config.random_access_latency_ns +
                self.bus.transfer_time(size_bytes))

    def transfer_time(self, size_bytes: int) -> float:
        return self.bus.transfer_time(size_bytes)

    def utilization(self, elapsed: float) -> float:
        return self.bus.utilization(elapsed)
