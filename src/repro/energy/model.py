"""Energy accounting.

The paper's energy model (Section 5.2) covers (1) computation on each SSD
computation resource and the host, and (2) data movement between the host
and the SSD and across SSD computation resources.  Fig. 7(b) reports total
energy split into *data movement* and *computation*; this module keeps the
two pools separate so the experiment harness can reproduce that breakdown.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict

from repro.common import KIB, ResourceLike
from repro.ssd.config import SSDEnergyConfig
from repro.host.config import HostMemoryConfig


@dataclass
class EnergyBreakdown:
    """Final energy report (nanojoules)."""

    compute_nj: float
    data_movement_nj: float
    per_resource_nj: Dict[str, float]
    per_transfer_kind_nj: Dict[str, float]

    @property
    def total_nj(self) -> float:
        return self.compute_nj + self.data_movement_nj

    @property
    def data_movement_fraction(self) -> float:
        total = self.total_nj
        return self.data_movement_nj / total if total else 0.0


class EnergyAccount:
    """Accumulates computation and data-movement energy during a run."""

    def __init__(self, ssd_energy: SSDEnergyConfig = None,
                 host_memory: HostMemoryConfig = None) -> None:
        self.ssd_energy = ssd_energy or SSDEnergyConfig()
        self.host_memory = host_memory or HostMemoryConfig()
        self._compute: Dict[str, float] = defaultdict(float)
        self._movement: Dict[str, float] = defaultdict(float)

    # -- Computation ------------------------------------------------------------

    def add_compute(self, resource: ResourceLike, energy_nj: float) -> None:
        """Add computation energy under the backend's report key.

        Registry-grown backends (``isp[0]``, ``cxl-pud``, ...) appear as
        their own rows in the per-resource breakdown.
        """
        self._compute[resource.value] += energy_nj

    # -- Data movement -----------------------------------------------------------

    def add_data_movement(self, kind: str, energy_nj: float) -> None:
        self._movement[kind] += energy_nj

    def charge_flash_read(self, pages: int = 1) -> float:
        nj = pages * self.ssd_energy.flash_read_nj_per_channel
        self.add_data_movement("flash-read", nj)
        return nj

    def charge_flash_program(self, pages: int = 1) -> float:
        nj = pages * self.ssd_energy.flash_program_nj_per_channel
        self.add_data_movement("flash-program", nj)
        return nj

    def charge_channel_dma(self, pages: int = 1) -> float:
        nj = pages * self.ssd_energy.dma_nj_per_channel
        self.add_data_movement("flash-channel-dma", nj)
        return nj

    def charge_dram_access(self, size_bytes: int) -> float:
        nj = (size_bytes / KIB) * self.ssd_energy.dram_access_nj_per_kb
        self.add_data_movement("ssd-dram", nj)
        return nj

    def charge_pcie(self, size_bytes: int) -> float:
        nj = (size_bytes / KIB) * self.ssd_energy.pcie_nj_per_kb
        self.add_data_movement("pcie", nj)
        return nj

    def charge_host_dram(self, size_bytes: int) -> float:
        nj = (size_bytes / KIB) * self.host_memory.energy_nj_per_kb
        self.add_data_movement("host-dram", nj)
        return nj

    def charge_run(self, *, flash_read_pages: int, flash_program_pages: int,
                   dma_pages: int) -> float:
        """Bulk-charge the data-movement energy of a batch of pages.

        The background flash engine counts the pages one maintenance step
        relocates and settles them with a single call, instead of charging
        each page individually.  Per-kind energies are linear in their
        counts, so the pools receive exactly what the per-page calls would
        have added.  Returns the total energy charged (nJ).
        """
        total = 0.0
        if flash_read_pages:
            total += self.charge_flash_read(flash_read_pages)
        if flash_program_pages:
            total += self.charge_flash_program(flash_program_pages)
        if dma_pages:
            total += self.charge_channel_dma(dma_pages)
        return total

    def charge_static(self, duration_ns: float, watts: float,
                      label: str = "static") -> float:
        """Charge background/static power for the duration of a run.

        Static power counts toward the computation share of Fig. 7(b)'s
        breakdown (it is not data movement).
        """
        nj = duration_ns * watts  # ns * W = nJ
        self._compute[label] += nj
        return nj

    # -- Reporting ------------------------------------------------------------------

    @property
    def compute_nj(self) -> float:
        return sum(self._compute.values())

    @property
    def data_movement_nj(self) -> float:
        return sum(self._movement.values())

    @property
    def total_nj(self) -> float:
        return self.compute_nj + self.data_movement_nj

    def breakdown(self) -> EnergyBreakdown:
        return EnergyBreakdown(
            compute_nj=self.compute_nj,
            data_movement_nj=self.data_movement_nj,
            per_resource_nj=dict(self._compute),
            per_transfer_kind_nj=dict(self._movement),
        )
