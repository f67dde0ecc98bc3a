"""Top-level SSD storage device.

Composes the NAND array, flash channel subsystem, FTL (with DFTL mapping
cache), garbage collector, wear-leveler and NVMe host interface into one
device that the NDP platform (:mod:`repro.core.platform`) builds on.

This module is the *storage* substrate: it knows how to place datasets on
flash, translate addresses, serve page reads/writes with realistic timing,
and run maintenance (GC / wear-leveling).  Computation resources (ISP,
PuD-SSD, IFP) are layered on top by the platform.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.common import SimulationError
from repro.ssd.config import SSDConfig
from repro.ssd.flash_controller import FlashChannelSubsystem
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.gc import GarbageCollector
from repro.ssd.lifetime import BackgroundFlashEngine
from repro.ssd.nand import NANDArray, PhysicalPageAddress
from repro.ssd.nvme import NVMeInterface, SSDMode
from repro.ssd.wear_leveling import WearLeveler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.energy.model import EnergyAccount


class SSD:
    """A simulated NAND-flash SSD (storage view)."""

    def __init__(self, config: Optional[SSDConfig] = None, *,
                 energy: Optional["EnergyAccount"] = None) -> None:
        self.config = config or SSDConfig()
        self.array = NANDArray(self.config.nand)
        self.channels = FlashChannelSubsystem(self.config.nand)
        self.ftl = FlashTranslationLayer(self.array, self.config.ftl)
        self.gc = GarbageCollector(self.ftl, self.config.ftl)
        self.wear_leveler = WearLeveler(self.ftl, self.config.ftl)
        self.nvme = NVMeInterface(self.config.host_interface)
        #: Background maintenance engine: GC and wear-leveling run as
        #: traffic on the shared channels (``repro.ssd.lifetime``).
        self.background = BackgroundFlashEngine(self, energy)

    # -- Properties -------------------------------------------------------------

    @property
    def page_size(self) -> int:
        return self.config.nand.page_size_bytes

    @property
    def total_pages(self) -> int:
        return self.config.nand.pages

    @property
    def mode(self) -> SSDMode:
        return self.nvme.mode

    # -- Dataset placement --------------------------------------------------------

    def populate(self, lpas: Iterable[int], *,
                 colocated_groups: Optional[Sequence[Sequence[int]]] = None
                 ) -> None:
        """Place a dataset on flash without charging simulation time.

        The paper assumes all application data resides in the SSD before
        execution starts (Section 4.4), so dataset placement is a zero-time
        setup step.  ``colocated_groups`` lists groups of logical pages that
        must share a flash block to satisfy IFP layout constraints.
        """
        colocated: set = set()
        if colocated_groups:
            for group in colocated_groups:
                group = list(group)
                self.ftl.write_colocated(group)
                colocated.update(group)
        for lpa in lpas:
            if lpa in colocated:
                continue
            self.ftl.write(lpa)

    # -- Flash-level access with timing ----------------------------------------------

    def location_of(self, lpa: int) -> Optional[PhysicalPageAddress]:
        """Physical location of a logical page (no latency charged)."""
        return self.ftl.translate(lpa)

    def read_page(self, now: float, lpa: int) -> float:
        """Read one logical page from flash (into the flash controller).

        Returns the end time: address translation, then the flash read.
        """
        ppa, translation_ns = self.ftl.lookup(lpa)
        if ppa is None:
            raise SimulationError(f"read of unmapped logical page {lpa}")
        end = self.channels.read_page(now + translation_ns, ppa.channel,
                                      ppa.die)
        # Background maintenance runs while the device serves reads too
        # (its relocations queue on the same channels/dies); the returned
        # stall is nonzero only under critical free-block pressure, when
        # GC preempts the foreground entirely.
        return end + self.background.pulse(end)

    def write_page(self, now: float, lpa: int) -> float:
        """Write one logical page (out-of-place update); return the end time."""
        translation_ns = self.ftl.lookup(lpa)[1]
        new_ppa = self.ftl.write(lpa)
        end = self.channels.program_page(now + translation_ns,
                                         new_ppa.channel, new_ppa.die)
        # Every write consumes free space, so it gives background GC and
        # wear-leveling a turn; the stall is nonzero only under critical
        # free-block pressure (foreground write throttling).
        return end + self.background.pulse(end)

    # -- Host I/O path (NVMe + PCIe) ---------------------------------------------------

    def host_read(self, now: float, lpas: Sequence[int]) -> float:
        """Host reads logical pages; returns the completion time."""
        self.nvme.check_host_io_allowed()
        finish = now
        for lpa in lpas:
            finish = max(finish, self.nvme.host_transfer(
                self.read_page(now, lpa), self.page_size, "ssd-to-host"))
        return finish

    def host_write(self, now: float, lpas: Sequence[int]) -> float:
        """Host writes logical pages; returns the completion time."""
        self.nvme.check_host_io_allowed()
        finish = now
        for lpa in lpas:
            received = self.nvme.host_transfer(now, self.page_size,
                                               "host-to-ssd")
            finish = max(finish, self.write_page(received, lpa))
        return finish

    # -- Mode switching ------------------------------------------------------------------

    def enter_computation_mode(self) -> None:
        self.nvme.enter_computation_mode()

    def enter_regular_io_mode(self) -> None:
        self.nvme.enter_regular_io_mode()
