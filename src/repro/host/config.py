"""Host system configuration (Table 2).

The paper runs the host CPU and GPU baselines on real hardware (Intel Xeon
Gold 5118 and NVIDIA A100) and combines them with simulated SSD-to-host data
transfers.  We substitute analytical roofline-style models of those parts
(see DESIGN.md): per-operation compute throughput bounded by main-memory /
HBM bandwidth, with operands streamed from the SSD over PCIe 4.0.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import ConfigurationError


@dataclass(frozen=True)
class HostCPUConfig:
    """Intel Xeon Gold 5118-class host CPU."""

    cores: int = 6
    clock_ghz: float = 3.2
    simd_width_bytes: int = 64          # AVX-512
    memory_bandwidth_gbps: float = 19.2     # DDR4-2400, 4 channels
    memory_latency_ns: float = 90.0
    active_power_w: float = 105.0

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.clock_ghz <= 0:
            raise ConfigurationError("host CPU core count/clock must be positive")

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.clock_ghz


@dataclass(frozen=True)
class HostGPUConfig:
    """NVIDIA A100-class host GPU."""

    streaming_multiprocessors: int = 108
    clock_ghz: float = 1.4
    lanes_per_sm: int = 64               # INT32 lanes per SM
    hbm_bandwidth_gbps: float = 1555.0
    active_power_w: float = 300.0

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.clock_ghz

    @property
    def total_lanes(self) -> int:
        return self.streaming_multiprocessors * self.lanes_per_sm


@dataclass(frozen=True)
class HostMemoryConfig:
    """Host main memory (32 GB DDR4-2400, 4 channels): its access energy."""

    energy_nj_per_kb: float = 260.0
