"""Flash translation layer: L2P mapping with a DFTL-style mapping cache.

The FTL translates each logical page address (LPA) to its current physical
page address (PPA).  The paper's simulator implements a demand-based L2P
mapping cache (DFTL): only a subset of mapping entries is cached in SSD
DRAM; the rest are fetched from flash on demand (Section 5.1).  Conduit
additionally stores three coherence fields per logical page in the L2P
table -- owner, state, version -- which live in
:mod:`repro.core.coherence`; the FTL here exposes the lookup-latency model
those components share (100 ns for a DRAM hit, 30 us for a flash miss;
Section 4.5).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common import SimulationError
from repro.ssd.allocator import PageAllocator
from repro.ssd.config import FTLConfig, NANDConfig
from repro.ssd.nand import NANDArray, PhysicalPageAddress


@dataclass
class FTLStatistics:
    """Counters the FTL maintains for analysis and tests."""

    lookups: int = 0
    cache_hits: int = 0
    host_writes: int = 0
    relocated_pages: int = 0

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.cache_hits / self.lookups


class MappingCache:
    """LRU cache of L2P mapping entries held in SSD DRAM (DFTL)."""

    def __init__(self, capacity_entries: int) -> None:
        if capacity_entries <= 0:
            raise SimulationError("mapping cache must hold at least 1 entry")
        self.capacity = capacity_entries
        self._entries: "OrderedDict[int, PhysicalPageAddress]" = OrderedDict()
        #: Bumped on every *membership* change (a new key inserted --
        #: including the capacity evictions that follow within the same
        #: call -- or a present key invalidated); pure LRU refreshes leave
        #: it untouched.  The wave-batched offload engine snapshots it to
        #: prove its precollected hit/miss partitions are still live.
        self.version = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, lpa: int) -> Optional[PhysicalPageAddress]:
        if lpa not in self._entries:
            return None
        self._entries.move_to_end(lpa)
        return self._entries[lpa]

    def insert(self, lpa: int, ppa: PhysicalPageAddress) -> None:
        entries = self._entries
        if lpa in entries:
            entries.move_to_end(lpa)
        else:
            self.version += 1
        entries[lpa] = ppa
        while len(entries) > self.capacity:
            entries.popitem(last=False)

    def invalidate(self, lpa: int) -> None:
        if self._entries.pop(lpa, None) is not None:
            self.version += 1


class FlashTranslationLayer:
    """Page-level FTL with demand-cached mapping table."""

    def __init__(self, array: NANDArray, config: FTLConfig) -> None:
        self.array = array
        self.config = config
        self.allocator = PageAllocator(array)
        self.mapping: Dict[int, PhysicalPageAddress] = {}
        cache_entries = max(
            1, int(config.mapping_cache_coverage * array.config.pages))
        self.cache = MappingCache(cache_entries)
        self.stats = FTLStatistics()

    # -- Address translation ---------------------------------------------------

    def translate(self, lpa: int) -> Optional[PhysicalPageAddress]:
        """Translate without charging latency (used internally)."""
        return self.mapping.get(lpa)

    def lookup(self, lpa: int) -> tuple:
        """Translate ``lpa`` and return ``(ppa, latency_ns)``.

        The latency follows the DFTL model: a cached entry costs a DRAM
        lookup (100 ns); a miss costs a flash read of the mapping page
        (30 us) after which the entry is cached.
        """
        self.stats.lookups += 1
        cached = self.cache.lookup(lpa)
        if cached is not None:
            self.stats.cache_hits += 1
            latency = self.config.l2p_dram_lookup_ns
        else:
            latency = self.config.l2p_flash_lookup_ns
            ppa = self.mapping.get(lpa)
            if ppa is not None:
                self.cache.insert(lpa, ppa)
        return self.mapping.get(lpa), latency

    # -- Write path --------------------------------------------------------------

    def write(self, lpa: int) -> PhysicalPageAddress:
        """Write (or overwrite) one logical page.

        Out-of-place update: the previous physical page, if any, is
        invalidated and a fresh page is programmed.
        """
        previous = self.mapping.get(lpa)
        if previous is not None:
            self.array.invalidate_page(previous)
        ppa = self.allocator.allocate(lpa)
        self.mapping[lpa] = ppa
        self.cache.insert(lpa, ppa)
        self.stats.host_writes += 1
        return ppa

    def write_colocated(self, lpas) -> Dict[int, PhysicalPageAddress]:
        """Write a group of logical pages into one block (IFP layout)."""
        lpas = list(lpas)
        for lpa in lpas:
            previous = self.mapping.get(lpa)
            if previous is not None:
                self.array.invalidate_page(previous)
        addresses = self.allocator.allocate_colocated(lpas)
        result = {}
        for lpa, ppa in zip(lpas, addresses):
            self.mapping[lpa] = ppa
            self.cache.insert(lpa, ppa)
            self.stats.host_writes += 1
            result[lpa] = ppa
        return result

    def relocate(self, lpa: int, *,
                 cold: Optional[bool] = None) -> PhysicalPageAddress:
        """Move a valid logical page to a fresh physical page (GC / WL).

        ``cold`` overrides the configured hot/cold-separation default;
        relocated data is cold by definition, so under separation it goes
        to the allocator's cold write stream.
        """
        previous = self.mapping.get(lpa)
        if previous is None:
            raise SimulationError(f"cannot relocate unmapped LPA {lpa}")
        if cold is None:
            cold = self.config.hot_cold_separation
        self.array.invalidate_page(previous)
        ppa = self.allocator.allocate(lpa, cold=cold)
        self.mapping[lpa] = ppa
        self.cache.insert(lpa, ppa)
        self.stats.relocated_pages += 1
        return ppa

    def trim(self, lpa: int) -> None:
        """Invalidate a logical page (host TRIM / dataset teardown)."""
        previous = self.mapping.pop(lpa, None)
        if previous is not None:
            self.array.invalidate_page(previous)
        self.cache.invalidate(lpa)

    # -- Occupancy ---------------------------------------------------------------

    def mapped_pages(self) -> int:
        return len(self.mapping)

    def free_block_fraction(self) -> float:
        return self.array.free_block_count() / self.array.total_blocks
