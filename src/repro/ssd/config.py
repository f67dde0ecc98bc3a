"""SSD configuration (Table 2 of the paper).

The default values reproduce the simulated SSD the paper evaluates: a 2 TB
48-wordline-layer 3D TLC NAND SSD with 8 channels, 8 dies per channel,
2 planes per die, 2 048 blocks per plane and 4 KiB pages, a 1.2 GB/s flash
channel, PCIe 4.0 host interface (8 GB/s), SLC-mode NAND latencies from
Flash-Cosmos (tREAD = 22.5 us, tPROG = 400 us, tERASE = 3.5 ms), ParaBit /
Flash-Cosmos in-flash operation latencies (tAND/OR = 20 ns, tXOR = 30 ns,
latch transfer = 20 ns) and tDMA = 3.3 us, and five ARM Cortex-R8 cores at
1.5 GHz in the SSD controller.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common import ConfigurationError, KIB, NS, US


class GCVictimPolicy(enum.Enum):
    """How the garbage collector picks its victim block.

    ``GREEDY`` (the seed's policy) maximises reclaimed pages per erase by
    taking the block with the most invalid pages.  ``COST_BENEFIT``
    additionally weighs the relocation cost of the block's remaining
    valid pages and its wear (a worn block is a worse victim), the
    classic adaptive-FTL victim score.
    """

    GREEDY = "greedy"
    COST_BENEFIT = "cost-benefit"


@dataclass(frozen=True)
class NANDConfig:
    """Geometry and timing of the NAND flash subsystem."""

    channels: int = 8
    dies_per_channel: int = 8
    planes_per_die: int = 2
    blocks_per_plane: int = 2048
    pages_per_block: int = 196          # 4 x 48 wordlines (Table 2)
    #: Flash page size.  Conduit's compile-time vector width (4096 x 32-bit)
    #: is chosen to match one NAND page of 16 KiB (Section 4.3.1).
    page_size_bytes: int = 16 * KIB

    # SLC-mode latencies (Flash-Cosmos enhanced SLC programming).
    read_latency_ns: float = 22.5 * US       # tR
    program_latency_ns: float = 400.0 * US   # tPROG
    erase_latency_ns: float = 3500.0 * US    # tBERS

    # In-flash computation latencies (per multi-wordline-sensing operation).
    and_or_latency_ns: float = 20.0 * NS     # tAND/OR (ParaBit)
    xor_latency_ns: float = 30.0 * NS        # tXOR (Flash-Cosmos)
    latch_transfer_latency_ns: float = 20.0 * NS

    # Transfer of one page between the page buffer and the flash controller.
    dma_latency_ns: float = 3.3 * US         # tDMA

    # Flash channel bandwidth (ONFI-style bus), bytes per nanosecond.
    channel_bandwidth_gbps: float = 1.2

    # Command transfer latency over the channel (per command).
    command_latency_ns: float = 200.0 * NS

    def __post_init__(self) -> None:
        for name in ("channels", "dies_per_channel", "planes_per_die",
                     "blocks_per_plane", "pages_per_block",
                     "page_size_bytes"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"NANDConfig.{name} must be positive")

    @property
    def channel_bandwidth_bytes_per_ns(self) -> float:
        return self.channel_bandwidth_gbps

    @property
    def dies(self) -> int:
        return self.channels * self.dies_per_channel

    @property
    def planes(self) -> int:
        return self.dies * self.planes_per_die

    @property
    def blocks(self) -> int:
        return self.planes * self.blocks_per_plane

    @property
    def pages(self) -> int:
        return self.blocks * self.pages_per_block

    @property
    def capacity_bytes(self) -> int:
        return self.pages * self.page_size_bytes


@dataclass(frozen=True)
class ControllerConfig:
    """SSD controller: its embedded cores."""

    cores: int = 5                      # ARM Cortex-R8 cores
    clock_ghz: float = 1.5
    #: Effective SIMD datapath width of the embedded cores.  The paper
    #: stresses that the controller cores have *limited* SIMD parallelism
    #: (32-bit registers, Section 2.2), which is what caps ISP throughput.
    simd_width_bytes: int = 4

    #: Cores reserved for FTL / host communication / Conduit's offloader.
    #: The paper dedicates one core to offloaded computation and keeps the
    #: others for latency-critical firmware tasks (Section 4.3.2).
    compute_cores: int = 1

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.compute_cores <= 0:
            raise ConfigurationError("controller core counts must be positive")
        if self.compute_cores > self.cores:
            raise ConfigurationError(
                "compute_cores cannot exceed total controller cores")

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.clock_ghz


@dataclass(frozen=True)
class HostInterfaceConfig:
    """Host interface (NVMe over PCIe 4.0 x4, 8 GB/s external bandwidth)."""

    pcie_bandwidth_gbps: float = 8.0
    nvme_command_latency_ns: float = 5.0 * US
    firmware_download_chunk_bytes: int = 128 * KIB

    @property
    def pcie_bandwidth_bytes_per_ns(self) -> float:
        return self.pcie_bandwidth_gbps


@dataclass(frozen=True)
class FTLConfig:
    """Flash translation layer parameters."""

    #: Fraction of the L2P mapping table cached in SSD DRAM (DFTL-style
    #: demand caching).  Lookups that miss the cache pay a flash read.
    mapping_cache_coverage: float = 0.25
    l2p_dram_lookup_ns: float = 100.0 * NS   # Section 4.5
    l2p_flash_lookup_ns: float = 30.0 * US   # Section 4.5

    #: Garbage collection starts when the fraction of free blocks drops
    #: below this threshold and stops at the stop threshold.
    gc_start_threshold: float = 0.05
    gc_stop_threshold: float = 0.10

    #: Wear-leveling swaps a cold block when the erase-count spread exceeds
    #: this factor of the mean.
    wear_leveling_threshold: float = 1.5

    # -- Adaptive-FTL policy axis (registered ablation) ---------------------

    #: GC victim-selection policy; ``GREEDY`` is the seed's behaviour.
    gc_victim_policy: GCVictimPolicy = GCVictimPolicy.GREEDY
    #: Route GC/WL relocations (cold data) to their own active blocks so
    #: they stop interleaving with hot foreground writes in the same
    #: block.  Off by default -- the single-stream allocator is the
    #: seed's bit-exact behaviour.
    hot_cold_separation: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.mapping_cache_coverage <= 1.0:
            raise ConfigurationError(
                "mapping_cache_coverage must be in (0, 1]")
        if self.gc_start_threshold >= self.gc_stop_threshold:
            raise ConfigurationError(
                "gc_start_threshold must be below gc_stop_threshold")


@dataclass(frozen=True)
class SSDEnergyConfig:
    """Per-operation energy values (Table 2), in nanojoules."""

    flash_read_nj_per_channel: float = 20_500.0     # 20.5 uJ / channel read
    flash_program_nj_per_channel: float = 55_000.0
    flash_erase_nj_per_block: float = 120_000.0
    ifp_and_or_nj_per_kb: float = 10.0
    ifp_xor_nj_per_kb: float = 20.0
    ifp_latch_transfer_nj_per_kb: float = 10.0
    dma_nj_per_channel: float = 7_656.0              # 7.656 uJ / channel DMA
    dram_access_nj_per_kb: float = 150.0
    controller_core_active_power_mw: float = 450.0
    pcie_nj_per_kb: float = 620.0
    #: Whole-device active power of the SSD (Samsung 980 Pro class),
    #: charged for the duration of a run on top of per-operation energies.
    ssd_active_power_w: float = 8.0
    #: Host package idle power charged while computation happens inside the
    #: SSD (the host still burns power waiting for NDP results).
    host_idle_power_w: float = 25.0


@dataclass(frozen=True)
class SSDConfig:
    """Top-level simulated SSD configuration (Table 2)."""

    nand: NANDConfig = field(default_factory=NANDConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    host_interface: HostInterfaceConfig = field(
        default_factory=HostInterfaceConfig)
    ftl: FTLConfig = field(default_factory=FTLConfig)
    energy: SSDEnergyConfig = field(default_factory=SSDEnergyConfig)

    @property
    def capacity_bytes(self) -> int:
        return self.nand.capacity_bytes

    def scaled(self, *, channels: int = None, dies_per_channel: int = None,
               blocks_per_plane: int = None) -> "SSDConfig":
        """Return a copy with a smaller/larger geometry (for fast tests)."""
        nand = NANDConfig(
            channels=channels or self.nand.channels,
            dies_per_channel=dies_per_channel or self.nand.dies_per_channel,
            planes_per_die=self.nand.planes_per_die,
            blocks_per_plane=blocks_per_plane or self.nand.blocks_per_plane,
            pages_per_block=self.nand.pages_per_block,
            page_size_bytes=self.nand.page_size_bytes,
            read_latency_ns=self.nand.read_latency_ns,
            program_latency_ns=self.nand.program_latency_ns,
            erase_latency_ns=self.nand.erase_latency_ns,
            and_or_latency_ns=self.nand.and_or_latency_ns,
            xor_latency_ns=self.nand.xor_latency_ns,
            latch_transfer_latency_ns=self.nand.latch_transfer_latency_ns,
            dma_latency_ns=self.nand.dma_latency_ns,
            channel_bandwidth_gbps=self.nand.channel_bandwidth_gbps,
            command_latency_ns=self.nand.command_latency_ns,
        )
        return SSDConfig(nand=nand, controller=self.controller,
                         host_interface=self.host_interface, ftl=self.ftl,
                         energy=self.energy)


def small_ssd_config() -> SSDConfig:
    """A reduced-geometry SSD used by unit tests and quick examples."""
    return SSDConfig().scaled(channels=4, dies_per_channel=2,
                              blocks_per_plane=64)
