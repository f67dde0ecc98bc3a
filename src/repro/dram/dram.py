"""SSD-internal DRAM device.

Combines the per-bank models with a shared data bus so that both regular
accesses (the FTL caching pages / metadata in DRAM) and bulk data movement
between flash and DRAM contend realistically for DRAM bandwidth.  This is
the substrate PuD-SSD (:mod:`repro.dram.pud`) computes on.

Besides single accesses, the device exposes :meth:`DRAMDevice.access_run`
for the run-batched data-movement engine: one call streams a whole
contiguous page run -- per-page row activations on the interleaved banks
(bank state must stay exact) followed by a single batched reservation of
the shared data bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common import SimulationError
from repro.dram.bank import DRAMBank
from repro.dram.config import DRAMConfig
from repro.ssd.events import SharedBus


@dataclass
class DRAMAccessTiming:
    start_ns: float
    end_ns: float
    bank: int

    @property
    def latency_ns(self) -> float:
        return self.end_ns - self.start_ns


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

    def read(self, now: float, address: int, size_bytes: int
             ) -> DRAMAccessTiming:
        """Read ``size_bytes`` starting at ``address``; returns timing."""
        return self._access(now, address, size_bytes, is_write=False)

    def write(self, now: float, address: int, size_bytes: int
              ) -> DRAMAccessTiming:
        return self._access(now, address, size_bytes, is_write=True)

    def _access(self, now: float, address: int, size_bytes: int, *,
                is_write: bool) -> DRAMAccessTiming:
        if size_bytes <= 0:
            raise SimulationError("DRAM access size must be positive")
        if address < 0 or address + size_bytes > self.config.capacity_bytes:
            raise SimulationError("DRAM access out of range")
        bank_index = self.bank_of(address)
        bank = self.banks[bank_index]
        # Row activations for every touched row, then stream over the bus.
        first_row = self.row_of(address)
        last_row = self.row_of(address + size_bytes - 1)
        finish = now
        for row in range(first_row, last_row + 1):
            finish = bank.access(finish, row % self.config.rows_per_bank)
        transfer = self.bus.transfer(finish, size_bytes)
        if is_write:
            self.bytes_written += size_bytes
        else:
            self.bytes_read += size_bytes
        return DRAMAccessTiming(start_ns=now, end_ns=transfer.end,
                                bank=bank_index)

    def access_run(self, arrivals: List[float], addresses: List[int],
                   size_bytes_each: int, *, is_write: bool) -> List[float]:
        """Access one equal-sized region per (arrival, address) pair.

        Equivalent to calling :meth:`read`/:meth:`write` once per pair in
        order: every touched row is still activated on its bank at the
        pair's own arrival time (row-buffer and bank-busy state stay
        exact), but the shared data bus is reserved once for the whole run
        via :meth:`repro.ssd.events.SharedBus.transfer_batch`.  Returns the
        per-access finish times.
        """
        if size_bytes_each <= 0:
            raise SimulationError("DRAM access size must be positive")
        capacity = self.config.capacity_bytes
        rows_per_bank = self.config.rows_per_bank
        bank_ready: List[float] = []
        for arrival, address in zip(arrivals, addresses):
            if address < 0 or address + size_bytes_each > capacity:
                raise SimulationError("DRAM access out of range")
            bank = self.banks[self.bank_of(address)]
            first_row = self.row_of(address)
            last_row = self.row_of(address + size_bytes_each - 1)
            finish = arrival
            for row in range(first_row, last_row + 1):
                finish = bank.access(finish, row % rows_per_bank)
            bank_ready.append(finish)
        ends = self.bus.transfer_batch(bank_ready, size_bytes_each)
        moved = size_bytes_each * len(ends)
        if is_write:
            self.bytes_written += moved
        else:
            self.bytes_read += moved
        return ends

    # -- Estimation helpers ---------------------------------------------------------

    def uncontended_access_latency(self, size_bytes: int) -> float:
        return (self.config.random_access_latency_ns +
                self.bus.transfer_time(size_bytes))

    def transfer_time(self, size_bytes: int) -> float:
        return self.bus.transfer_time(size_bytes)

    def utilization(self, elapsed: float) -> float:
        return self.bus.utilization(elapsed)
