"""DRAM bank model.

Each DRAM bank is an independently operating array of rows (Fig. 2).  The
bank model tracks the open row (row-buffer locality), charges tRCD / tRP /
tRAS according to whether an access hits or misses the row buffer, and
exposes the triple-row-activation primitive that Ambit-style
processing-using-DRAM builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common import SimulationError
from repro.dram.config import DRAMConfig


@dataclass
class BankStatistics:
    row_hits: int = 0
    row_misses: int = 0
    bbop_activations: int = 0


class DRAMBank:
    """One DRAM bank with an open-row (row buffer) policy."""

    def __init__(self, index: int, config: DRAMConfig) -> None:
        self.index = index
        self.config = config
        self.open_row: Optional[int] = None
        self.busy_until = 0.0
        self.stats = BankStatistics()

    def _start(self, now: float) -> float:
        return max(now, self.busy_until)

    def access(self, now: float, row: int) -> float:
        """Access (read or write) a column of ``row``; returns finish time."""
        if row < 0 or row >= self.config.rows_per_bank:
            raise SimulationError(
                f"row {row} out of range for bank {self.index}")
        start = self._start(now)
        if self.open_row == row:
            self.stats.row_hits += 1
            latency = self.config.t_ccd_ns
        else:
            self.stats.row_misses += 1
            latency = 0.0
            if self.open_row is not None:
                latency += self.config.t_rp_ns
            latency += self.config.t_rcd_ns + self.config.t_ccd_ns
            self.open_row = row
        self.busy_until = start + latency
        return self.busy_until

    def bulk_bitwise_operation(self, now: float, steps: int = 1) -> float:
        """Perform ``steps`` Ambit/MIMDRAM bulk-bitwise row operations.

        Each step is a (multi-)row activation sequence of latency Tbbop
        operating on one full row in this bank.  The row buffer is left
        closed afterwards (the PuD sequence ends with a precharge).
        """
        if steps <= 0:
            raise SimulationError("bulk bitwise operation needs >= 1 step")
        start = self._start(now)
        latency = steps * self.config.bbop_latency_ns
        self.stats.bbop_activations += steps
        self.open_row = None
        self.busy_until = start + latency
        return self.busy_until
