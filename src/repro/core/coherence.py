"""Lazy coherence between SSD computation resources.

Conduit maintains coherence at logical-page granularity using lightweight
metadata stored alongside the L2P table in SSD DRAM (Section 4.4).  Each
logical page has three fields:

* **owner** -- the computation-resource location (flash, SSD DRAM, or
  controller SRAM) holding the latest version of the page;
* **state** -- clean or dirty;
* **version** -- a one-byte monotonically increasing counter used to order
  updates and detect stale copies.

Synchronisation is *lazy*: data is written back to flash only when another
computation resource (or the host) requests the page, when it must be
evicted to reuse the temporary location, on garbage collection, or on a
power cycle.  A strict flush-on-every-write policy is modelled as well so
the ablation benchmark can quantify why the paper rejects it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.common import DataLocation, SimulationError

#: Size of the version counter in bits (stored as one byte; a 3-bit counter
#: would suffice for the evaluated workloads -- Section 4.4, footnote 4).
VERSION_BITS = 8
_VERSION_WRAP = 2 ** VERSION_BITS

#: Reason of the commit strict coherence issues after every write.  It is
#: the only commit the platform performs as a flash write-back when the
#: write happens (:meth:`~repro.core.platform.SSDPlatform.write_through`).
STRICT_WRITE_THROUGH = "strict coherence write-through"

#: Shared empty action list: returned (and never mutated) by the run-level
#: hooks when no synchronisation is needed, so clean-path calls allocate
#: nothing.
_NO_ACTIONS: List["SyncAction"] = []


class PageCoherenceState(enum.Enum):
    CLEAN = "clean"
    DIRTY = "dirty"


class CoherencePolicy(enum.Enum):
    """Lazy (paper) vs strict (ablation) synchronisation."""

    LAZY = "lazy"
    STRICT = "strict"


@dataclass(slots=True)
class CoherenceEntry:
    """Owner / state / version triple for one logical page."""

    owner: DataLocation = DataLocation.FLASH
    state: PageCoherenceState = PageCoherenceState.CLEAN
    version: int = 0

    #: Bytes this entry adds to the L2P table: owner (1) + state (1) +
    #: version (1).
    METADATA_BYTES = 3


@dataclass
class SyncAction:
    """One synchronisation the directory requests from the platform."""

    lpa: int
    from_location: DataLocation
    #: Commit target is always flash (the durable home of every page).
    to_location: DataLocation = DataLocation.FLASH
    reason: str = ""


class CoherenceDirectory:
    """Tracks owner/state/version for every logical page touched by NDP."""

    def __init__(self, policy: CoherencePolicy = CoherencePolicy.LAZY) -> None:
        self.policy = policy
        self._entries: Dict[int, CoherenceEntry] = {}
        #: Logical pages currently in the DIRTY state.  The run-granular
        #: entry points use this index to skip per-page scans of runs whose
        #: pages are all clean (the common case on the read path).
        self._dirty: set = set()
        self.flushes = 0
        self.version_wraps = 0

    # -- Entry access --------------------------------------------------------

    def entry(self, lpa: int) -> CoherenceEntry:
        if lpa not in self._entries:
            self._entries[lpa] = CoherenceEntry()
        return self._entries[lpa]

    def owner(self, lpa: int) -> DataLocation:
        return self.entry(lpa).owner

    def tracked_pages(self) -> int:
        return len(self._entries)

    def metadata_bytes(self) -> int:
        """Coherence metadata footprint in SSD DRAM."""
        return len(self._entries) * CoherenceEntry.METADATA_BYTES

    # -- Reads ------------------------------------------------------------------

    def on_read(self, lpa: int,
                reader_location: DataLocation) -> List[SyncAction]:
        """A computation resource (or the host) reads ``lpa``.

        If another resource holds a dirty copy, the lazy protocol commits the
        page to flash first (Section 4.4: "If another computation resource or
        the host requests the page, Conduit commits the updated page to the
        NAND flash chips, sets the owner field to flash, marks the state as
        clean, and resets the version").
        """
        entry = self.entry(lpa)
        actions: List[SyncAction] = []
        if (entry.state is PageCoherenceState.DIRTY
                and entry.owner is not reader_location):
            actions.append(SyncAction(lpa=lpa, from_location=entry.owner,
                                      reason="remote read of dirty page"))
            self._commit(lpa, entry)
        return actions

    def on_read_run(self, base_lpa: int, count: int,
                    reader_location: DataLocation) -> List[SyncAction]:
        """Run-granular :meth:`on_read` over ``[base_lpa, base_lpa+count)``.

        Equivalent to calling ``on_read`` for every page of the run in
        ascending order.  When no page of the run is dirty (checked against
        the dirty index without touching per-page entries), the scan reduces
        to materialising the run's tracking entries.
        """
        end = base_lpa + count
        dirty = self._dirty
        entries = self._entries
        if not dirty:
            # Clean run (the steady state): no commits are possible; only
            # the run's tracking entries are materialised.
            for lpa in range(base_lpa, end):
                if lpa not in entries:
                    entries[lpa] = CoherenceEntry()
            return _NO_ACTIONS
        if len(dirty) <= count:
            dirty_in_run = sorted(
                lpa for lpa in dirty if base_lpa <= lpa < end)
        else:
            dirty_in_run = [lpa for lpa in range(base_lpa, end)
                            if lpa in dirty]
        actions: List[SyncAction] = []
        # Only dirty pages can generate commits; visiting them in ascending
        # LPA order reproduces the per-page scan's action order.  (The list
        # is materialized first because committing mutates the dirty index.)
        for lpa in dirty_in_run:
            entry = entries[lpa]
            if entry.owner is not reader_location:
                actions.append(SyncAction(lpa=lpa, from_location=entry.owner,
                                          reason="remote read of dirty page"))
                self._commit(lpa, entry)
        for lpa in range(base_lpa, end):
            if lpa not in entries:
                entries[lpa] = CoherenceEntry()
        return actions

    # -- Writes -----------------------------------------------------------------

    def on_write(self, lpa: int,
                 writer_location: DataLocation) -> List[SyncAction]:
        """A computation resource produces a new version of ``lpa``."""
        entry = self.entry(lpa)
        actions: List[SyncAction] = []
        if (entry.state is PageCoherenceState.DIRTY
                and entry.owner is not writer_location):
            actions.append(SyncAction(lpa=lpa, from_location=entry.owner,
                                      reason="remote write of dirty page"))
            self._commit(lpa, entry)
        entry.owner = writer_location
        entry.state = PageCoherenceState.DIRTY
        self._dirty.add(lpa)
        entry.version += 1
        if entry.version >= _VERSION_WRAP:
            # Flush before the counter wraps (correctness rule, footnote 4).
            actions.append(SyncAction(lpa=lpa, from_location=entry.owner,
                                      reason="version counter wrap"))
            self._commit(lpa, entry)
            self.version_wraps += 1
        if self.policy is CoherencePolicy.STRICT:
            actions.append(SyncAction(lpa=lpa, from_location=writer_location,
                                      reason=STRICT_WRITE_THROUGH))
            self._commit(lpa, entry)
        return actions

    def on_write_run(self, base_lpa: int, count: int,
                     writer_location: DataLocation) -> List[SyncAction]:
        """Run-granular :meth:`on_write` (every write mutates its entry)."""
        if self.policy is not CoherencePolicy.LAZY:
            actions = []
            for lpa in range(base_lpa, base_lpa + count):
                actions.extend(self.on_write(lpa, writer_location))
            return actions
        # Inlined lazy-path :meth:`on_write` (no strict write-through).
        entries = self._entries
        dirty_add = self._dirty.add
        dirty_state = PageCoherenceState.DIRTY
        actions: Optional[List[SyncAction]] = None
        for lpa in range(base_lpa, base_lpa + count):
            entry = entries.get(lpa)
            if entry is None:
                entry = entries[lpa] = CoherenceEntry()
            if (entry.state is dirty_state
                    and entry.owner is not writer_location):
                if actions is None:
                    actions = []
                actions.append(SyncAction(
                    lpa=lpa, from_location=entry.owner,
                    reason="remote write of dirty page"))
                self._commit(lpa, entry)
            entry.owner = writer_location
            entry.state = dirty_state
            dirty_add(lpa)
            entry.version += 1
            if entry.version >= _VERSION_WRAP:
                if actions is None:
                    actions = []
                actions.append(SyncAction(
                    lpa=lpa, from_location=entry.owner,
                    reason="version counter wrap"))
                self._commit(lpa, entry)
                self.version_wraps += 1
        return _NO_ACTIONS if actions is None else actions

    # -- Evictions / maintenance -----------------------------------------------------

    def on_evict(self, lpa: int) -> List[SyncAction]:
        """The page's temporary location is being reclaimed."""
        entry = self.entry(lpa)
        if entry.state is PageCoherenceState.DIRTY:
            action = SyncAction(lpa=lpa, from_location=entry.owner,
                                reason="eviction from temporary location")
            self._commit(lpa, entry)
            return [action]
        entry.owner = DataLocation.FLASH
        return []

    def on_gc(self, lpas: Iterable[int]) -> List[SyncAction]:
        """Garbage collection forces synchronisation of affected pages."""
        actions: List[SyncAction] = []
        for lpa in lpas:
            entry = self.entry(lpa)
            if entry.state is PageCoherenceState.DIRTY:
                actions.append(SyncAction(lpa=lpa, from_location=entry.owner,
                                          reason="garbage collection"))
                self._commit(lpa, entry)
        return actions

    def on_power_cycle(self) -> List[SyncAction]:
        actions: List[SyncAction] = []
        for lpa, entry in self._entries.items():
            if entry.state is PageCoherenceState.DIRTY:
                actions.append(SyncAction(lpa=lpa, from_location=entry.owner,
                                          reason="power cycle"))
                self._commit(lpa, entry)
        return actions

    # -- Internal ------------------------------------------------------------------------

    def _commit(self, lpa: int, entry: CoherenceEntry) -> None:
        entry.owner = DataLocation.FLASH
        entry.state = PageCoherenceState.CLEAN
        entry.version = 0
        self._dirty.discard(lpa)
        self.flushes += 1
