"""Lazy coherence between SSD computation resources.

Conduit maintains coherence at logical-page granularity using lightweight
metadata stored alongside the L2P table in SSD DRAM (Section 4.4).  Each
logical page has three fields:

* **owner** -- the computation-resource location (flash, SSD DRAM, or
  controller SRAM) holding the latest version of the page;
* **state** -- clean or dirty;
* **version** -- a one-byte monotonically increasing counter used to order
  updates and detect stale copies.

Synchronisation is *lazy*: a dirty page is committed to flash only when
another computation resource (or the host) requests it, when it is evicted
from a temporary location, when a different resource overwrites it, or
before its version counter wraps.  A strict flush-on-every-write policy is
modelled as well so the ablation benchmark can quantify why the paper
rejects it.

The directory has one hook per event (``on_read_run``, ``on_write_run``,
``on_evict``), each returning the commits it made.  Remote-read commits,
strict write-throughs and dirty evictions are performed as flash
write-backs; remote-write and version-wrap commits are counted in
``flushes`` but move no data and are not charged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.common import DataLocation

#: Size of the version counter in bits (stored as one byte; a 3-bit counter
#: would suffice for the evaluated workloads -- Section 4.4, footnote 4).
VERSION_BITS = 8
_VERSION_WRAP = 2 ** VERSION_BITS

#: Reason of the commit strict coherence issues after every write.  It is
#: the only write-time commit the platform performs as a flash write-back
#: (:meth:`~repro.core.platform.SSDPlatform.mark_produced_run`).
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
    """One commit of a page to flash (the durable home of every page)."""

    lpa: int
    from_location: DataLocation
    reason: str


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

    def tracked_pages(self) -> int:
        return len(self._entries)

    def metadata_bytes(self) -> int:
        """Coherence metadata footprint in SSD DRAM."""
        return len(self._entries) * CoherenceEntry.METADATA_BYTES

    # -- Reads ------------------------------------------------------------------

    def on_read_run(self, base_lpa: int, count: int,
                    reader_location: DataLocation) -> List[SyncAction]:
        """A computation resource (or the host) reads ``[base_lpa, +count)``.

        Dirty pages owned elsewhere are committed to flash first, in LPA
        order (Section 4.4).  Only dirty pages can commit, so the scan
        consults the dirty index; a clean run only gains tracking entries.
        """
        end = base_lpa + count
        dirty = self._dirty
        entries = self._entries
        actions = _NO_ACTIONS
        if dirty:
            if len(dirty) <= count:
                dirty_in_run = sorted(
                    lpa for lpa in dirty if base_lpa <= lpa < end)
            else:
                dirty_in_run = [lpa for lpa in range(base_lpa, end)
                                if lpa in dirty]
            # Materialized first: committing mutates the dirty index.
            for lpa in dirty_in_run:
                entry = entries[lpa]
                if entry.owner is not reader_location:
                    if actions is _NO_ACTIONS:
                        actions = []
                    actions.append(SyncAction(
                        lpa, entry.owner, "remote read of dirty page"))
                    self._commit(lpa, entry)
        for lpa in range(base_lpa, end):
            if lpa not in entries:
                entries[lpa] = CoherenceEntry()
        return actions

    # -- Writes -----------------------------------------------------------------

    def on_write_run(self, base_lpa: int, count: int,
                     writer_location: DataLocation) -> List[SyncAction]:
        """A computation resource produces ``[base_lpa, +count)``.

        Per page: commit a dirty copy owned elsewhere (remote write), make
        the page dirty at the writer, commit before the version counter
        wraps (footnote 4), then commit again under strict coherence.
        """
        entries = self._entries
        dirty_add = self._dirty.add
        dirty_state = PageCoherenceState.DIRTY
        strict = self.policy is CoherencePolicy.STRICT
        actions = _NO_ACTIONS
        for lpa in range(base_lpa, base_lpa + count):
            entry = entries.get(lpa)
            if entry is None:
                entry = entries[lpa] = CoherenceEntry()
            if (entry.state is dirty_state
                    and entry.owner is not writer_location):
                if actions is _NO_ACTIONS:
                    actions = []
                actions.append(SyncAction(lpa, entry.owner,
                                          "remote write of dirty page"))
                self._commit(lpa, entry)
            entry.owner = writer_location
            entry.state = dirty_state
            dirty_add(lpa)
            entry.version += 1
            if entry.version >= _VERSION_WRAP:
                if actions is _NO_ACTIONS:
                    actions = []
                actions.append(SyncAction(lpa, writer_location,
                                          "version counter wrap"))
                self._commit(lpa, entry)
                self.version_wraps += 1
            if strict:
                if actions is _NO_ACTIONS:
                    actions = []
                actions.append(SyncAction(lpa, writer_location,
                                          STRICT_WRITE_THROUGH))
                self._commit(lpa, entry)
        return actions

    # -- Evictions -------------------------------------------------------------

    def on_evict(self, lpa: int) -> List[SyncAction]:
        """The page's temporary location is being reclaimed."""
        entry = self.entry(lpa)
        if entry.state is PageCoherenceState.DIRTY:
            action = SyncAction(lpa, entry.owner,
                                "eviction from temporary location")
            self._commit(lpa, entry)
            return [action]
        entry.owner = DataLocation.FLASH
        return []

    # -- Internal ------------------------------------------------------------------------

    def _commit(self, lpa: int, entry: CoherenceEntry) -> None:
        entry.owner = DataLocation.FLASH
        entry.state = PageCoherenceState.CLEAN
        entry.version = 0
        self._dirty.discard(lpa)
        self.flushes += 1
