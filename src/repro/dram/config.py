"""SSD-internal DRAM configuration.

Table 2: 2 GB LPDDR4-1866, 1 channel, 1 rank, 8 banks, with bulk-bitwise
operation latency Tbbop = 49 ns and energy Ebbop = 0.864 nJ (MIMDRAM-style
processing-using-DRAM).  Timing parameters follow JEDEC LPDDR4 values used
by Ramulator 2.0.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import ConfigurationError, GIB, KIB


@dataclass(frozen=True)
class DRAMConfig:
    """LPDDR4 SSD-internal DRAM parameters."""

    capacity_bytes: int = 2 * GIB
    channels: int = 1
    ranks: int = 1
    banks: int = 8
    row_size_bytes: int = 8 * KIB          # one DRAM row (page)
    data_rate_mtps: float = 1866.0         # mega-transfers per second
    bus_width_bits: int = 32               # LPDDR4 x32 channel

    # Core timing parameters (ns), LPDDR4-1866 grade.
    t_rcd_ns: float = 18.0
    t_rp_ns: float = 18.0
    t_ccd_ns: float = 8.0

    # Processing-using-DRAM operation latency/energy (Table 2).
    bbop_latency_ns: float = 49.0
    bbop_energy_nj: float = 0.864

    #: MAJ/AND/OR-based bit-serial arithmetic cost factors (SIMDRAM-style):
    #: number of bulk-bitwise steps per operand bit.
    add_steps_per_bit: float = 5.0
    mul_steps_per_bit_squared: float = 2.0

    def __post_init__(self) -> None:
        if self.banks <= 0 or self.channels <= 0 or self.ranks <= 0:
            raise ConfigurationError("DRAM geometry values must be positive")
        if self.capacity_bytes <= 0:
            raise ConfigurationError("DRAM capacity must be positive")

    @property
    def bandwidth_bytes_per_ns(self) -> float:
        """Peak channel bandwidth in bytes per nanosecond."""
        return (self.data_rate_mtps * 1e6 * (self.bus_width_bits / 8)) / 1e9

    @property
    def rows_per_bank(self) -> int:
        per_bank_bytes = self.capacity_bytes // (self.channels * self.ranks
                                                 * self.banks)
        return per_bank_bytes // self.row_size_bytes

    @property
    def random_access_latency_ns(self) -> float:
        """Closed-page random access latency (ACT + CAS)."""
        return self.t_rcd_ns + self.t_ccd_ns
