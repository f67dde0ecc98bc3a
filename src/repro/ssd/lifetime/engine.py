"""Background flash-maintenance engine.

Every :class:`~repro.ssd.ssd.SSD` owns one :class:`BackgroundFlashEngine`,
which runs garbage collection and wear-leveling as traffic on the shared
flash channels: every relocation read/program and every erase is issued
through :class:`~repro.ssd.flash_controller.FlashChannelSubsystem`,
reserving the victim's channel and die like any foreground operation.
Foreground movements that land on the same channel or die genuinely queue
behind the background chain, the movement-overrun those queues cause is
exactly what the contention monitor (:mod:`repro.core.contention`)
samples, and the cost model reprices offloading under GC pressure with
zero new coupling.  On a factory-fresh drive neither GC nor wear-leveling
ever triggers, so the engine only idles.

Like real firmware, background work is *serialized and budgeted*: one
maintenance chain runs at a time (a pulse while the previous chain's
reservations are still in flight does nothing), and one chain relocates at
most :data:`GC_PAGES_PER_STEP` pages.  Only when free blocks become critically
scarce does the engine throttle the foreground write itself -- the
near-EOL write cliff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.ssd.nand import FlashBlock, PhysicalBlockAddress

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.energy.model import EnergyAccount
    from repro.ssd.ssd import SSD

#: Maximum page relocations one background step may issue; the engine is
#: serialized (a step only starts after the previous one's flash
#: reservations finished), so this bounds the background duty cycle.
GC_PAGES_PER_STEP = 24

#: Static wear-leveling migrates at most this many blocks per run (real
#: firmware runs static WL at a slow fixed cadence).
WL_BLOCKS_PER_RUN = 4


@dataclass
class MaintenanceStats:
    """Device-maintenance view of one run (attached to ExecutionResult).

    Populated by :meth:`SSDPlatform.maintenance_stats` from the background
    engine's counters plus the array's wear statistics.
    """

    drive_age: str = "fresh"
    gc_steps: int = 0
    gc_relocated_pages: int = 0
    gc_erased_blocks: int = 0
    wl_runs: int = 0
    wl_migrated_pages: int = 0
    wl_erased_blocks: int = 0
    #: Simulated time the background engine kept flash resources reserved.
    background_busy_ns: float = 0.0
    #: Foreground-write stall imposed by critical free-block pressure.
    foreground_stall_ns: float = 0.0
    free_block_fraction: float = 1.0
    erase_count_min: int = 0
    erase_count_mean: float = 0.0
    erase_count_max: int = 0
    erase_count_variance: float = 0.0
    wear_imbalance: float = 1.0
    #: Floor of the drive's historical WA (profile) and the measured
    #: ``1 + relocated / host_writes`` of this run.
    write_amplification: float = 1.0
    #: Contention-monitor samples taken during the run (movement overruns
    #: observed while background traffic shared the channels).
    contention_samples: int = 0


class BackgroundFlashEngine:
    """Drives GC and wear-leveling as shared-channel background traffic."""

    def __init__(self, ssd: "SSD",
                 energy: Optional["EnergyAccount"] = None) -> None:
        self.ssd = ssd
        self.energy = energy
        #: End time of the in-flight maintenance chain; a pulse before
        #: this does nothing (one chain at a time, like firmware).
        self._busy_until = 0.0
        #: GC hysteresis: once triggered at the start threshold, keep
        #: collecting until the stop threshold (seed semantics).
        self._gc_active = False
        #: Block the wear-leveler is currently draining across pulses.
        self._wl_target: Optional[PhysicalBlockAddress] = None
        #: Free-block fraction below which foreground writes stall behind
        #: GC (write throttling; real drives hit this cliff near EOL).
        self._critical_fraction = (
            ssd.config.ftl.gc_start_threshold / 2.0)
        #: Free-block and erase counts at which a pulse last found nothing
        #: to do; while both still hold, a pulse returns at once (the
        #: pulse is offered on every foreground page access).
        self._array = ssd.array
        self._idle_free_blocks = -1
        self._idle_erases = -1
        self.gc_steps = 0
        self.gc_relocated_pages = 0
        self.gc_erased_blocks = 0
        self.wl_runs = 0
        self.wl_migrated_pages = 0
        self.wl_erased_blocks = 0
        self.busy_ns = 0.0
        self.foreground_stall_ns = 0.0

    # -- Foreground hook -----------------------------------------------------

    def pulse(self, now: float) -> float:
        """Give the firmware a maintenance opportunity at time ``now``.

        Called from the foreground read and write paths (every
        write/eviction is a free-block consumer).  Returns the foreground
        stall in ns: zero unless free blocks are critically scarce, in
        which case the write is throttled behind a synchronous GC step.
        Once a pulse finds the drive idle, later pulses return at once
        until a block is opened, freed or erased.
        """
        array = self._array
        if (array.erases == self._idle_erases
                and array.free_block_count() == self._idle_free_blocks):
            return 0.0
        ssd = self.ssd
        if ssd.ftl.free_block_fraction() < self._critical_fraction:
            self._gc_step(max(now, self._busy_until))
            stall = max(0.0, self._busy_until - now)
            self.foreground_stall_ns += stall
            return stall
        if now < self._busy_until:
            return 0.0
        if self._gc_active or ssd.gc.needs_collection():
            self._gc_step(now)
        elif (self.wl_erased_blocks < WL_BLOCKS_PER_RUN
              and (self._wl_target is not None
                   or ssd.wear_leveler.needs_leveling())):
            self._wl_step(now)
        else:
            # Idle, and every check above reads only the free-block and
            # erase counts while no chain is active.  A block comes back
            # free only through an erase and erases only grow, so once
            # either count moves these never match again.
            self._idle_free_blocks = array.free_block_count()
            self._idle_erases = array.erases
        return 0.0

    # -- GC ------------------------------------------------------------------

    def _gc_step(self, now: float) -> None:
        """Run one budgeted garbage-collection step starting at ``now``."""
        ssd = self.ssd
        gc = ssd.gc
        if ssd.ftl.free_block_fraction() >= self.ssd.config.ftl.gc_stop_threshold:
            self._gc_active = False
            return
        victim = gc.select_victim()
        if victim is None:
            self._gc_active = False
            return
        self._gc_active = True
        self.gc_steps += 1
        t, relocated = self._drain(now, victim, GC_PAGES_PER_STEP)
        self.gc_relocated_pages += relocated
        if victim.valid_pages == 0 and victim.write_cursor > 0:
            t = self._erase(t, victim)
            self.gc_erased_blocks += 1
        self._settle(now, t)

    # -- Wear-leveling -------------------------------------------------------

    def _wl_step(self, now: float) -> None:
        """Advance the static wear-leveling migration by one budget step."""
        ssd = self.ssd
        wl = ssd.wear_leveler
        if self._wl_target is not None:
            block = ssd.array.block(self._wl_target)
            if block.write_cursor == 0:
                # Someone else (GC) reclaimed it; pick a new target later.
                self._wl_target = None
                return
        else:
            block = wl.coldest_block()
            if block is None:
                return
            self._wl_target = block.address
            self.wl_runs += 1
        t, migrated = self._drain(now, block, GC_PAGES_PER_STEP)
        self.wl_migrated_pages += migrated
        if block.valid_pages == 0 and block.write_cursor > 0:
            t = self._erase(t, block)
            self.wl_erased_blocks += 1
            self._wl_target = None
        self._settle(now, t)

    # -- Shared flash mechanics ----------------------------------------------

    def _drain(self, now: float, block: FlashBlock,
               budget: int) -> tuple:
        """Relocate up to ``budget`` of ``block``'s valid pages.

        Each relocation reads the page out of the victim's die and
        programs it at the allocator-chosen destination, both through the
        shared channel subsystem, chained back-to-back (one firmware
        engine).  Returns ``(finish_time, pages_relocated)``.  The page
        list is re-checked live (never erase on a stale snapshot): the
        allocator may stripe relocations *into* the block being drained,
        in which case the caller simply finds ``valid_pages > 0`` and
        retries on a later pulse.
        """
        ssd = self.ssd
        channels = ssd.channels
        ftl = ssd.ftl
        address = block.address
        cold = ftl.config.hot_cold_separation
        t = now
        relocated = 0
        for lpa in block.valid_lpas():
            if relocated >= budget:
                break
            read = channels.read_page(t, address.channel, address.die)
            new_ppa = ftl.relocate(lpa, cold=cold)
            t = channels.program_page(read, new_ppa.channel, new_ppa.die)
            relocated += 1
        if relocated and self.energy is not None:
            self.energy.charge_run(flash_read_pages=relocated,
                                   flash_program_pages=relocated,
                                   dma_pages=2 * relocated)
        return t, relocated

    def _erase(self, now: float, block: FlashBlock) -> float:
        """Erase a fully-drained block on its channel/die; return end time."""
        address = block.address
        end = self.ssd.channels.erase_block(now, address.channel,
                                            address.die)
        self.ssd.array.erase_block(address)
        if self.energy is not None:
            self.energy.add_data_movement(
                "flash-erase",
                self.energy.ssd_energy.flash_erase_nj_per_block)
        return end

    def _settle(self, now: float, finish: float) -> None:
        if finish > now:
            self._busy_until = finish
            self.busy_ns += finish - now
