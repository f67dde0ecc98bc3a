"""Lazy coherence between SSD computation resources.

Conduit maintains coherence at logical-page granularity using lightweight
metadata stored alongside the L2P table in SSD DRAM (Section 4.4).  Each
logical page has three fields:

* **owner** -- the operand location (flash, SSD DRAM, or the host)
  holding the latest version of the page;
* **state** -- clean or dirty;
* **version** -- a one-byte monotonically increasing counter used to order
  updates and detect stale copies.

A clean page is always owned by flash at version 0, so only dirty pages
carry information: the directory stores ``lpa -> (owner, version)`` for
the dirty pages alone, and a page absent from that map is clean in flash.

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
from typing import Dict, List, Tuple

from repro.common import DataLocation

#: Size of the version counter in bits (stored as one byte; a 3-bit counter
#: would suffice for the evaluated workloads -- Section 4.4, footnote 4).
VERSION_BITS = 8
_VERSION_WRAP = 2 ** VERSION_BITS

#: Bytes the coherence fields add to each L2P entry: owner (1) + state (1)
#: + version (1).
METADATA_BYTES_PER_PAGE = 3

#: Reason of the commit strict coherence issues after every write.  It is
#: the only write-time commit the platform performs as a flash write-back
#: (:meth:`~repro.core.platform.SSDPlatform.mark_produced_run`).
STRICT_WRITE_THROUGH = "strict coherence write-through"

#: Shared empty action list: returned (and never mutated) by the hooks
#: when no synchronisation is needed, so clean-path calls allocate nothing.
_NO_ACTIONS: List["SyncAction"] = []

#: (owner, version) of a page absent from the directory: clean in flash.
_CLEAN = (DataLocation.FLASH, 0)


class CoherencePolicy(enum.Enum):
    """Lazy (paper) vs strict (ablation) synchronisation."""

    LAZY = "lazy"
    STRICT = "strict"


@dataclass
class SyncAction:
    """One commit of a page to flash (the durable home of every page)."""

    lpa: int
    from_location: DataLocation
    reason: str


class CoherenceDirectory:
    """Tracks the owner and version of every dirty logical page."""

    def __init__(self, policy: CoherencePolicy = CoherencePolicy.LAZY) -> None:
        self.policy = policy
        #: lpa -> (owner, version) of each dirty page; absent pages are
        #: clean in flash at version 0.
        self._dirty: Dict[int, Tuple[DataLocation, int]] = {}
        self.flushes = 0
        self.version_wraps = 0

    # -- Reads ------------------------------------------------------------------

    def on_read_run(self, base_lpa: int, count: int,
                    reader_location: DataLocation) -> List[SyncAction]:
        """A computation resource (or the host) reads ``[base_lpa, +count)``.

        Dirty pages owned elsewhere are committed to flash first, in LPA
        order (Section 4.4).  The scan filters the dirty map when it is no
        larger than the run, and walks the run otherwise.
        """
        dirty = self._dirty
        if not dirty:
            return _NO_ACTIONS
        end = base_lpa + count
        if len(dirty) <= count:
            dirty_in_run = sorted(
                lpa for lpa in dirty if base_lpa <= lpa < end)
        else:
            dirty_in_run = [lpa for lpa in range(base_lpa, end)
                            if lpa in dirty]
        # Materialized first: committing mutates the dirty map.
        actions = _NO_ACTIONS
        for lpa in dirty_in_run:
            owner = dirty[lpa][0]
            if owner is not reader_location:
                if actions is _NO_ACTIONS:
                    actions = []
                actions.append(SyncAction(
                    lpa, owner, "remote read of dirty page"))
                self._commit(lpa)
        return actions

    # -- Writes -----------------------------------------------------------------

    def on_write_run(self, base_lpa: int, count: int,
                     writer_location: DataLocation) -> List[SyncAction]:
        """A computation resource produces ``[base_lpa, +count)``.

        Per page: commit a dirty copy owned elsewhere (remote write), make
        the page dirty at the writer, commit before the version counter
        wraps (footnote 4), then commit again under strict coherence.
        """
        dirty = self._dirty
        get = dirty.get
        strict = self.policy is CoherencePolicy.STRICT
        actions = _NO_ACTIONS
        for lpa in range(base_lpa, base_lpa + count):
            owner, version = get(lpa, _CLEAN)
            if owner is not writer_location:
                if version:
                    if actions is _NO_ACTIONS:
                        actions = []
                    actions.append(SyncAction(lpa, owner,
                                              "remote write of dirty page"))
                    self.flushes += 1
                version = 0
            version += 1
            dirty[lpa] = (writer_location, version)
            if version >= _VERSION_WRAP:
                if actions is _NO_ACTIONS:
                    actions = []
                actions.append(SyncAction(lpa, writer_location,
                                          "version counter wrap"))
                self._commit(lpa)
                self.version_wraps += 1
            if strict:
                if actions is _NO_ACTIONS:
                    actions = []
                actions.append(SyncAction(lpa, writer_location,
                                          STRICT_WRITE_THROUGH))
                self._commit(lpa)
        return actions

    # -- Evictions -------------------------------------------------------------

    def on_evict(self, lpa: int) -> List[SyncAction]:
        """The page's temporary location is being reclaimed."""
        state = self._dirty.get(lpa)
        if state is None:
            return _NO_ACTIONS
        self._commit(lpa)
        return [SyncAction(lpa, state[0], "eviction from temporary location")]

    # -- Internal ------------------------------------------------------------------------

    def _commit(self, lpa: int) -> None:
        """Commit the page to flash; a strict commit after a wrap finds it
        already clean."""
        self._dirty.pop(lpa, None)
        self.flushes += 1
