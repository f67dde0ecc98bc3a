"""The NDP-capable SSD platform.

Composes every substrate into the system the paper simulates: the NAND SSD
(storage, FTL, channels), the SSD-internal DRAM with its PuD compute
capability, the controller cores (ISP), the in-flash processing unit (IFP),
per-resource execution queues, the host CPU/GPU used by the OSP baselines,
the energy account, the lazy-coherence directory, and the data-movement
engine that shuttles logical pages between flash, SSD DRAM, controller SRAM
and the host.

Every array maps to a contiguous LPA run (Section 4.4), so the runtimes
drive the data path through two run-granular steps:
:meth:`SSDPlatform.ensure_runs_at` moves runs to a location one page at a
time (each page reserves its own channel/die, DRAM bank and shared-bus
slots and pays its own energy; a dirty page evicted from the destination's
capacity window is written back before the next page moves), and
:meth:`SSDPlatform.mark_produced_run` records a run just produced at a
location.  The feature collector reads the :attr:`SSDPlatform.residence`
index and the precomputed movement table (Section 4.5) directly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common import (BackendId, DataLocation, MIB, OpType, Resource,
                          ResourceLike, SimulationError)
from repro.core.backends import BackendRegistry
from repro.core.coherence import (STRICT_WRITE_THROUGH, CoherenceDirectory,
                                  CoherencePolicy)
from repro.core.contention import LinkContentionMonitor
from repro.dram.config import DRAMConfig
from repro.dram.cxl import CXLPuDBackend, CXLPuDConfig
from repro.dram.dram import DRAMDevice
from repro.dram.pud import PuDBackend
from repro.energy.model import EnergyAccount
from repro.host.config import HostCPUConfig, HostGPUConfig, HostMemoryConfig
from repro.host.cpu import HostCPUBackend
from repro.host.gpu import HostGPUBackend
from repro.ifp.unit import IFPBackend
from repro.isp.core import ISPBackend
from repro.ssd.config import SSDConfig
from repro.ssd.events import Server
from repro.ssd.lifetime import (DriveAgeProfile, MaintenanceStats,
                                apply_drive_age)
from repro.ssd.queues import ExecutionQueue
from repro.ssd.ssd import SSD


@dataclass(frozen=True)
class PlatformConfig:
    """Configuration of the full NDP platform."""

    ssd: SSDConfig = field(default_factory=SSDConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    host_cpu: HostCPUConfig = field(default_factory=HostCPUConfig)
    host_gpu: HostGPUConfig = field(default_factory=HostGPUConfig)
    host_memory: HostMemoryConfig = field(default_factory=HostMemoryConfig)

    #: Portion of SSD DRAM usable as PuD compute operand space; the rest
    #: holds FTL metadata and the page cache (Section 2.2).  Dirty operands
    #: are lazily flushed to flash when evicted from this window.
    dram_compute_window_bytes: int = 64 * MIB
    #: Controller SRAM / register space usable for ISP operands.
    sram_window_bytes: int = 8 * MIB
    #: Host page-cache budget for SSD-resident data (OSP baselines).
    host_cache_bytes: int = 128 * MIB

    coherence_policy: CoherencePolicy = CoherencePolicy.LAZY

    # -- Contention-aware cost model (link-utilization feedback) ------------

    #: Correct the cost model's data-movement estimates with live
    #: link-contention feedback: every completed movement reports its
    #: observed time against the uncontended table estimate, the overrun
    #: (the queueing experienced on the path's shared buses -- flash
    #: channels, SSD DRAM bus, PCIe) is EWMA-smoothed per operand path,
    #: and each candidate's future estimates are scaled by its path's
    #: smoothed overrun (plus the live backlog of backend-private links
    #: such as the CXL command link).  This closes the greedy
    #: per-instruction argmin's blindness to global link contention; see
    #: :mod:`repro.core.contention`.  Off by default so the pinned
    #: goldens keep reproducing the paper's uncorrected cost model
    #: bit-exactly.
    contention_feedback: bool = False

    #: Opt in to the wave-batched offload engine.  The default (``False``)
    #: collects each instruction's features and decides it on its own,
    #: as the paper's offloader does (Section 4.3.2).  With ``True`` a
    #: dependency slicer groups the compiled IR into ready waves
    #: (page-disjoint, dependence-free program-order blocks) and the
    #: feature collector precollects each wave's operand locations, L2P
    #: probes and movement-table sums in one pass; every member is then
    #: decided by the same policy ``choose`` and dispatch code.  Both
    #: engines give bit-identical results: identical per-component
    #: latencies are charged, mapping-cache LRU refreshes are replayed at
    #: each member's decision time, and any mid-wave residence or
    #: mapping-cache hazard falls back to the per-instruction path.  The
    #: wave engine was not faster in paired benchmark runs
    #: (``BENCH_decision_engine.json``); it stays selectable only until
    #: the benchmark tracer stops reading its entry points by name.
    batched_offload: bool = False

    # -- Backend roster (the platform's compute shape is data, not code) ----

    #: Number of ISP compute-core backends to register.  ``1`` (the paper's
    #: configuration) registers a single backend for the controller's
    #: compute-core pool; ``n > 1`` registers per-core backends
    #: ``isp[0..n)``, each with its own execution queue, so the cost
    #: function sees (and balances) per-core contention.  On a per-core
    #: roster the pooled ``Resource.ISP`` identity is *not* registered --
    #: identity lookups for it fail loudly; discover the cores via
    #: ``platform.backends.backends_of_kind(Resource.ISP)``.
    isp_cores: int = 1

    #: Opt-in CXL-attached PuD tier with its own latency/energy/bandwidth
    #: point (see :mod:`repro.dram.cxl`).  ``None`` disables the tier.
    cxl_pud: Optional[CXLPuDConfig] = None

    #: Device-lifetime axis (see :mod:`repro.ssd.lifetime`): the drive-age
    #: profile applied at construction, after which the background GC/wear
    #: engine turns maintenance into live traffic on the shared flash
    #: channels.  The default (``None``) is a factory-fresh drive, on which
    #: the engine never acts.
    drive_age: Optional[DriveAgeProfile] = None


class _LocationWindow:
    """LRU-managed capacity window for a temporary operand location."""

    def __init__(self, name: str, capacity_pages: int) -> None:
        self.name = name
        self.capacity_pages = capacity_pages
        self._pages: "OrderedDict[int, bool]" = OrderedDict()
        self.evictions = 0

    def touch(self, lpa: int) -> None:
        if lpa in self._pages:
            self._pages.move_to_end(lpa)

    def add(self, lpa: int) -> Sequence[int]:
        """Insert a page; return the pages evicted to make room."""
        pages = self._pages
        if lpa in pages:
            pages.move_to_end(lpa)
            return ()
        pages[lpa] = True
        if len(pages) <= self.capacity_pages:
            return ()
        evicted: List[int] = []
        while len(pages) > self.capacity_pages:
            evicted.append(pages.popitem(last=False)[0])
            self.evictions += 1
        return evicted

    def remove(self, lpa: int) -> None:
        self._pages.pop(lpa, None)


@dataclass
class DataMovementStats:
    """Aggregate data-movement accounting used by Fig. 4 and Fig. 7(b)."""

    flash_to_dram_pages: int = 0
    flash_to_sram_pages: int = 0
    dram_to_sram_pages: int = 0
    sram_to_dram_pages: int = 0
    writeback_pages: int = 0
    host_pages: int = 0
    internal_latency_ns: float = 0.0
    host_latency_ns: float = 0.0
    flash_read_latency_ns: float = 0.0

    @property
    def internal_pages(self) -> int:
        return (self.flash_to_dram_pages + self.flash_to_sram_pages +
                self.dram_to_sram_pages + self.sram_to_dram_pages +
                self.writeback_pages)


def backend_roster(config: PlatformConfig) -> Tuple[str, ...]:
    """Backend identities a configuration will register, in order.

    Computable without building a platform (the sweep cache folds this
    roster into its keys, so entries recorded on a differently-shaped
    platform can never be served).  :meth:`SSDPlatform._build_backends`
    verifies its registry against this prediction on every construction,
    so a roster knob added to one but not the other fails loudly for any
    shape -- the cache guarantee is enforced structurally, not by
    convention.
    """
    roster: List[str] = []
    if config.isp_cores <= 1:
        roster.append(Resource.ISP.value)
    else:
        roster.extend(f"isp[{core}]" for core in range(config.isp_cores))
    roster.append(Resource.PUD.value)
    roster.append(Resource.IFP.value)
    if config.cxl_pud is not None:
        roster.append("cxl-pud")
    roster.append(Resource.HOST_CPU.value)
    roster.append(Resource.HOST_GPU.value)
    return tuple(roster)


class SSDPlatform:
    """The complete simulated system."""

    def __init__(self, config: Optional[PlatformConfig] = None) -> None:
        self.config = config or PlatformConfig()
        if self.config.isp_cores < 1:
            raise SimulationError("PlatformConfig.isp_cores must be >= 1")
        ssd_config = self.config.ssd
        page = ssd_config.nand.page_size_bytes
        for name in ("dram_compute_window_bytes", "sram_window_bytes",
                     "host_cache_bytes"):
            if getattr(self.config, name) < page:
                raise SimulationError(
                    f"PlatformConfig.{name} must be >= one page "
                    f"({page} bytes)")
        self.energy = EnergyAccount(ssd_config.energy,
                                    self.config.host_memory)
        self.ssd = SSD(ssd_config, energy=self.energy)
        self.dram = DRAMDevice(self.config.dram)
        if self.config.drive_age is not None:
            # Zero-time pre-history: fragments the array and seeds wear
            # before the dataset is placed, so allocation and GC see an
            # aged drive from the first write.
            apply_drive_age(self.ssd, self.config.drive_age)
        self.coherence = CoherenceDirectory(self.config.coherence_policy)
        #: Every compute engine of the system, keyed by identity; the
        #: offload stack discovers its candidates here.
        self.backends = self._build_backends()
        #: Backend identity -> its execution queue, in registration order.
        self.queues: Dict[ResourceLike, ExecutionQueue] = (
            self.backends.queues())
        #: The controller core running the SSD offloader itself.
        self.dispatch_core = Server("offloader-core")

        self._page_size = page
        self._dram_window = _LocationWindow(
            "ssd-dram", self.config.dram_compute_window_bytes // page)
        self._sram_window = _LocationWindow(
            "ctrl-sram", self.config.sram_window_bytes // page)
        self._host_window = _LocationWindow(
            "host-cache", self.config.host_cache_bytes // page)
        self._windows: Dict[DataLocation, _LocationWindow] = {
            DataLocation.SSD_DRAM: self._dram_window,
            DataLocation.CTRL_SRAM: self._sram_window,
            DataLocation.HOST: self._host_window,
        }
        self._residence: Dict[int, DataLocation] = {}
        #: Bumped on every eviction-driven residence change -- the only
        #: way one instruction's dispatch can move *another* page-disjoint
        #: instruction's operands.  The wave-batched offload engine
        #: snapshots it to prove its precollected operand locations are
        #: still live at each member's decision time.
        self.eviction_epoch = 0
        self.movement = DataMovementStats()
        self._move_table = self._build_move_table()
        #: EWMA monitor of observed movement overrun per operand path,
        #: fed only when ``config.contention_feedback`` is enabled (see
        #: :mod:`repro.core.contention`).  Owned per platform, so every
        #: run starts from clean feedback state.
        self.contention = LinkContentionMonitor()
        #: Feedback-on memos of static per-candidate terms: the monitor
        #: key of each backend's operand path, and the uncontended
        #: flash-channel time of each (backend, op, size, bits)
        #: execution (0.0 when it moves nothing over the channels).
        self._movement_paths: Dict[ResourceLike, str] = {}
        self._execution_channel_ns: Dict[
            Tuple[ResourceLike, OpType, int, int], float] = {}

    # ------------------------------------------------------------------------
    # Backend registry (the platform's compute shape, grown from config)
    # ------------------------------------------------------------------------

    def _build_backends(self) -> BackendRegistry:
        """Register one backend per configured compute engine.

        Registration order is the stable candidate/tie-break order of the
        offload stack; it must match :func:`backend_roster`.
        """
        config = self.config
        ssd_config = config.ssd
        registry = BackendRegistry()
        if config.isp_cores <= 1:
            registry.register(ISPBackend(Resource.ISP, ssd_config.controller,
                                         ssd_config.energy))
        else:
            for core in range(config.isp_cores):
                registry.register(ISPBackend(
                    BackendId(f"isp[{core}]", Resource.ISP),
                    ssd_config.controller, ssd_config.energy,
                    queue_parallelism=1))
        registry.register(PuDBackend(Resource.PUD, self.dram))
        registry.register(IFPBackend(Resource.IFP, self.ssd.channels,
                                     ssd_config.nand, ssd_config.energy))
        if config.cxl_pud is not None:
            registry.register(CXLPuDBackend(
                BackendId("cxl-pud", Resource.PUD), config.cxl_pud))
        pcie = self.ssd.nvme.pcie
        registry.register(HostCPUBackend(Resource.HOST_CPU, pcie,
                                         config.host_cpu))
        registry.register(HostGPUBackend(Resource.HOST_GPU, pcie,
                                         config.host_gpu))
        expected = backend_roster(config)
        if registry.roster() != expected:
            raise SimulationError(
                f"backend registry {registry.roster()} diverged from "
                f"backend_roster() prediction {expected}; update both when "
                "adding a roster knob (the sweep cache keys on the "
                "prediction)")
        return registry

    def offload_candidates(self) -> Tuple[ResourceLike, ...]:
        """Identities the SSD offloader may target (registration order)."""
        return self.backends.offload_candidates()

    # ------------------------------------------------------------------------
    # Dataset placement
    # ------------------------------------------------------------------------

    @property
    def page_size(self) -> int:
        return self._page_size

    def setup_dataset(self, lpas: Iterable[int], *,
                      colocated_groups: Optional[List[List[int]]] = None
                      ) -> None:
        """Place the application dataset on flash (zero-time setup)."""
        self.ssd.populate(lpas, colocated_groups=colocated_groups)

    # ------------------------------------------------------------------------
    # Operand locations
    # ------------------------------------------------------------------------

    def location_of(self, lpa: int) -> DataLocation:
        return self._residence.get(lpa, DataLocation.FLASH)

    @property
    def residence(self) -> Dict[int, DataLocation]:
        """Residence index: LPA -> current location (flash if absent).

        Exposed (read-only by convention) so the feature collector can
        histogram operand runs in a single pass without a method call per
        page.
        """
        return self._residence

    # ------------------------------------------------------------------------
    # Precomputed data-movement latency table (Section 4.5)
    # ------------------------------------------------------------------------

    def _build_move_table(self) -> Dict[Tuple[DataLocation, DataLocation],
                                        float]:
        nand = self.config.ssd.nand
        channels = self.ssd.channels
        dram = self.dram
        nvme = self.ssd.nvme
        page = self._page_size
        flash_out = channels.uncontended_read_latency(transfer_out=True)
        flash_program = channels.uncontended_program_latency()
        dram_access = dram.uncontended_access_latency(page)
        pcie = nvme.host_transfer_latency(page)
        table = {
            (DataLocation.FLASH, DataLocation.SSD_DRAM):
                flash_out + dram_access,
            (DataLocation.FLASH, DataLocation.CTRL_SRAM): flash_out,
            (DataLocation.FLASH, DataLocation.HOST): flash_out + pcie,
            (DataLocation.SSD_DRAM, DataLocation.CTRL_SRAM): dram_access,
            (DataLocation.CTRL_SRAM, DataLocation.SSD_DRAM): dram_access,
            (DataLocation.SSD_DRAM, DataLocation.FLASH):
                dram_access + flash_program,
            (DataLocation.CTRL_SRAM, DataLocation.FLASH): flash_program,
            (DataLocation.SSD_DRAM, DataLocation.HOST): dram_access + pcie,
            (DataLocation.CTRL_SRAM, DataLocation.HOST): pcie,
            (DataLocation.HOST, DataLocation.FLASH): pcie + flash_program,
            (DataLocation.HOST, DataLocation.SSD_DRAM): pcie + dram_access,
            (DataLocation.HOST, DataLocation.CTRL_SRAM): pcie,
        }
        for location in DataLocation:
            table[(location, location)] = 0.0
        return table

    def estimate_move_latency(self, source: DataLocation,
                              destination: DataLocation,
                              pages: int = 1) -> float:
        """Uncontended latency to move ``pages`` pages (lookup table)."""
        if pages < 0:
            raise SimulationError(f"cannot move {pages} pages")
        return self._move_table[(source, destination)] * pages

    # ------------------------------------------------------------------------
    # Data movement (reserves buses, charges energy)
    # ------------------------------------------------------------------------

    def ensure_runs_at(self, now: float, runs: Sequence[Tuple[int, int]],
                       destination: DataLocation) -> float:
        """Move ``(base_lpa, count)`` runs to ``destination`` page by page.

        Returns the finish time.  Resident pages only refresh their LRU
        position; capacity evictions are written back asynchronously (they
        do not extend the finish time), and a later page's residence
        reflects an earlier page's evictions.
        """
        residence = self._residence
        windows = self._windows
        window = windows.get(destination)
        transfer = self._transfer_page
        flash = DataLocation.FLASH
        finish = now
        for base, count in runs:
            for lpa in range(base, base + count):
                source = residence.get(lpa, flash)
                if source is destination:
                    if window is not None:
                        window.touch(lpa)
                    continue
                end = transfer(now, lpa, source, destination)
                if end > finish:
                    finish = end
                source_window = windows.get(source)
                if source_window is not None:
                    source_window.remove(lpa)
                residence[lpa] = destination
                if window is not None:
                    for victim in window.add(lpa):
                        self._evict_page(now, victim)
        return finish

    def mark_produced_run(self, now: float, run: Tuple[int, int],
                          location: DataLocation) -> None:
        """Record a ``(base_lpa, count)`` run just produced at ``location``.

        In order: the coherence directory sees the write; the pages then
        reside at ``location``, possibly evicting older pages from its
        window; then each strict write-through is written back to flash
        like a dirty eviction, without delaying the producer (a page
        produced in flash by IFP is already home).  Remote-write and
        version-wrap commits are counted by the directory, not performed.
        """
        base, count = run
        actions = self.coherence.on_write_run(base, count, location)
        residence = self._residence
        windows = self._windows
        window = windows.get(location)
        flash = DataLocation.FLASH
        for lpa in range(base, base + count):
            source_window = windows.get(residence.get(lpa, flash))
            if source_window is not None and source_window is not window:
                source_window.remove(lpa)
            residence[lpa] = location
            if window is not None:
                for victim in window.add(lpa):
                    self._evict_page(now, victim)
        if actions and location is not flash:
            for action in actions:
                if action.reason == STRICT_WRITE_THROUGH:
                    self._transfer_page(now, action.lpa, location, flash,
                                        writeback=True)

    def _evict_page(self, now: float, lpa: int) -> None:
        """Evict a page from a temporary location back to flash."""
        location = self._residence.get(lpa, DataLocation.FLASH)
        if location is DataLocation.FLASH:
            return
        self.eviction_epoch += 1
        actions = self.coherence.on_evict(lpa)
        if actions:
            # Dirty page: asynchronous write-back consumes flash bandwidth.
            self._transfer_page(now, lpa, location, DataLocation.FLASH,
                                writeback=True)
        self._residence[lpa] = DataLocation.FLASH

    def _dram_address(self, lpa: int) -> int:
        """Spread logical pages across DRAM banks for realistic parallelism."""
        span = self.config.dram.capacity_bytes - self._page_size
        return (lpa * self._page_size) % max(self._page_size, span)

    def _transfer_page(self, now: float, lpa: int, source: DataLocation,
                       destination: DataLocation, *,
                       writeback: bool = False) -> float:
        """Reserve the buses needed to move one page; charge energy."""
        stats = self.movement
        energy = self.energy
        page = self._page_size
        if source is DataLocation.FLASH:
            finish = self.ssd.read_page(now, lpa, transfer_out=True)
            energy.charge_flash_read()
            energy.charge_channel_dma()
            stats.flash_read_latency_ns += finish - now
            if destination is DataLocation.SSD_DRAM:
                finish = self.dram.write(finish, self._dram_address(lpa),
                                         page)
                energy.charge_dram_access(page)
                stats.flash_to_dram_pages += 1
            elif destination is DataLocation.CTRL_SRAM:
                stats.flash_to_sram_pages += 1
            elif destination is DataLocation.HOST:
                finish = self.ssd.nvme.host_transfer(finish, page,
                                                     "ssd-to-host")
                energy.charge_pcie(page)
                energy.charge_host_dram(page)
                stats.host_pages += 1
                stats.host_latency_ns += finish - now
        elif destination is DataLocation.FLASH:
            finish = now
            if source is DataLocation.SSD_DRAM:
                finish = self.dram.read(now, self._dram_address(lpa), page)
                energy.charge_dram_access(page)
            elif source is DataLocation.HOST:
                finish = self.ssd.nvme.host_transfer(now, page,
                                                     "host-to-ssd")
                energy.charge_pcie(page)
            finish = self.ssd.write_page(finish, lpa)
            energy.charge_flash_program()
            energy.charge_channel_dma()
            stats.writeback_pages += 1
        elif DataLocation.HOST in (source, destination):
            # DRAM/SRAM <-> host transfers go over PCIe.
            finish = self.ssd.nvme.host_transfer(
                now, page,
                "ssd-to-host" if destination is DataLocation.HOST
                else "host-to-ssd")
            energy.charge_pcie(page)
            stats.host_pages += 1
            stats.host_latency_ns += finish - now
        elif destination is DataLocation.CTRL_SRAM:
            # DRAM <-> SRAM transfers go over the SSD DRAM bus.
            finish = self.dram.read(now, self._dram_address(lpa), page)
            energy.charge_dram_access(page)
            stats.dram_to_sram_pages += 1
        else:
            finish = self.dram.write(now, self._dram_address(lpa), page)
            energy.charge_dram_access(page)
            stats.sram_to_dram_pages += 1
        if not writeback and DataLocation.HOST not in (source, destination):
            stats.internal_latency_ns += finish - now
        return finish

    # ------------------------------------------------------------------------
    # Computation latency / energy / execution
    # ------------------------------------------------------------------------

    def supports(self, resource: ResourceLike, op: OpType) -> bool:
        return self.backends[resource].supports(op)

    def compute_latency(self, resource: ResourceLike, op: OpType,
                        size_bytes: int, element_bits: int) -> float:
        """Expected computation latency of one instruction on ``resource``."""
        return self.backends[resource].operation_latency(op, size_bytes,
                                                         element_bits)

    def record_compute(self, now: float, resource: ResourceLike, op: OpType,
                       size_bytes: int, element_bits: int) -> None:
        """Run one operation on the compute backend and charge its energy."""
        backend = self.backends[resource]
        backend.execute(now, op, size_bytes, element_bits)
        self.energy.add_compute(
            resource, backend.operation_energy(op, size_bytes, element_bits))

    # ------------------------------------------------------------------------
    # Utilization snapshot (BW-Offloading input)
    # ------------------------------------------------------------------------

    def bandwidth_utilization(self, resource: ResourceLike,
                              elapsed: float) -> float:
        """Approximate bandwidth utilization of a backend's data path."""
        if elapsed <= 0:
            return 0.0
        return self.backends[resource].utilization(elapsed)

    # ------------------------------------------------------------------------
    # Contention feedback (the cost model's link-utilization input)
    # ------------------------------------------------------------------------

    def movement_path(self, resource: ResourceLike) -> str:
        """Monitor key of the operand path feeding one offload candidate.

        Candidates sharing a home location share the shared-bus path
        (flash channels plus the destination leg: SSD DRAM bus or PCIe),
        so the overrun observed for one backend's movements reprices every
        backend on the same path.
        """
        path = self._movement_paths.get(resource)
        if path is None:
            path = self.backends[resource].home_location.value
            self._movement_paths[resource] = path
        return path

    def maintenance_stats(self) -> MaintenanceStats:
        """Device-lifetime snapshot of the run (GC/WL pressure and wear).

        Aggregates the background engine's counters with the NAND array's
        erase-count statistics and the FTL's write-amplification view.
        Attached to every :class:`~repro.core.metrics.ExecutionResult`.
        """
        ssd = self.ssd
        drive_age = self.config.drive_age
        engine = ssd.background
        minimum, mean, maximum = ssd.array.erase_count_stats()
        ftl_stats = ssd.ftl.stats
        amplification = 1.0
        if ftl_stats.host_writes:
            amplification = 1.0 + (ftl_stats.relocated_pages /
                                   ftl_stats.host_writes)
        if drive_age is not None:
            # The profile's pre-history WA is a floor: an aged drive never
            # reports better amplification than the state it arrived in.
            amplification = max(amplification,
                                drive_age.prior_write_amplification)
        return MaintenanceStats(
            drive_age=drive_age.name if drive_age else "fresh",
            gc_steps=engine.gc_steps,
            gc_relocated_pages=engine.gc_relocated_pages,
            gc_erased_blocks=engine.gc_erased_blocks,
            wl_runs=engine.wl_runs,
            wl_migrated_pages=engine.wl_migrated_pages,
            wl_erased_blocks=engine.wl_erased_blocks,
            background_busy_ns=engine.busy_ns,
            foreground_stall_ns=engine.foreground_stall_ns,
            free_block_fraction=ssd.ftl.free_block_fraction(),
            erase_count_min=minimum,
            erase_count_mean=mean,
            erase_count_max=maximum,
            erase_count_variance=ssd.array.erase_count_variance(),
            wear_imbalance=ssd.wear_leveler.imbalance(),
            write_amplification=amplification,
            contention_samples=self.contention.samples)

    def observe_movement_contention(self, resource: ResourceLike,
                                    estimated_ns: float,
                                    observed_ns: float) -> None:
        """Feed one completed movement's estimate/actual pair back.

        Called by the offloader's dispatch loop after every operand
        movement; the overrun versus the uncontended table estimate is the
        queueing the movement experienced on its path's shared links
        (:mod:`repro.core.contention`).  A no-op unless
        ``contention_feedback`` is enabled -- feedback-off runs never
        touch the monitor and stay bit-exact.
        """
        if not self.config.contention_feedback:
            return
        self.contention.observe_movement(self.movement_path(resource),
                                         estimated_ns, observed_ns)

    def contention_penalty_ns(self, resource: ResourceLike, op: OpType,
                              size_bytes: int, element_bits: int,
                              movement_ns: float, now: float) -> float:
        """Expected extra delay from link contention for one candidate.

        Three terms, all exactly ``0.0`` with feedback disabled:

        * ``movement_ns`` (the candidate's uncontended movement estimate)
          scaled by the EWMA-observed overrun of its operand path, plus
          the live backlog of any backend-private link on that path (the
          CXL command link) -- a candidate moving nothing pays neither
          (its tier's busy-ness is already the queueing-delay feature);
        * the shared flash-channel occupancy the candidate's *execution*
          would impose (Ares-Flash partial-product shuttling), priced at
          the channels' uncontended transfer time.  This traffic never
          extends the instruction's own latency, so without feedback it
          is a free externality on every flash-bound movement.
        """
        if not self.config.contention_feedback:
            return 0.0
        penalty = 0.0
        if movement_ns > 0.0:
            # Private-link backlog rides with the movement term: a
            # zero-movement candidate's busy tier is already priced by
            # the queueing-delay feature (its execution queue is a
            # per-candidate cost input), so charging the link again
            # there double-counts and measurably over-deters.
            scale = self.contention.scale(self.movement_path(resource))
            penalty += (movement_ns * (scale - 1.0) +
                        self.backends[resource].link_backlog_ns(now))
        if self.contention.samples > 0:
            # The externality price activates with the feedback loop's
            # first observation: under provably zero traffic (nothing
            # moved yet) feedback-on estimates must equal feedback-off.
            key = (resource, op, size_bytes, element_bits)
            channel_ns = self._execution_channel_ns.get(key)
            if channel_ns is None:
                channel_bytes = self.backends[
                    resource].execution_channel_bytes(op, size_bytes,
                                                      element_bits)
                channel_ns = (
                    self.ssd.channels.channels.transfer_time(channel_bytes)
                    if channel_bytes > 0.0 else 0.0)
                self._execution_channel_ns[key] = channel_ns
            if channel_ns:
                penalty += channel_ns
        return penalty

    # ------------------------------------------------------------------------
    # Home locations
    # ------------------------------------------------------------------------

    def home_location(self, resource: ResourceLike) -> DataLocation:
        """Where operands must reside for ``resource`` to compute."""
        return self.backends[resource].home_location
