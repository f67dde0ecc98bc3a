"""Page allocation with NDP data-layout constraints.

The FTL's page allocation policy decides which physical block receives the
next programmed page.  Conduit extends MQSim's allocator to enforce the
data-layout constraints of the NDP paradigms (Section 4.4):

* **IFP (Flash-Cosmos)**: all operands of a bulk bitwise AND must reside in
  pages of the *same flash block*; operands of an OR must be in different
  blocks of the *same plane*.  The allocator therefore supports *colocated*
  allocation, which places a group of logical pages into one block (or one
  plane).
* **Striped allocation** spreads consecutive logical pages across channels
  and dies to maximise internal parallelism: every
  :meth:`PageAllocator.allocate` follows MQSim's default channel-first
  striping.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional

from repro.common import SimulationError
from repro.ssd.nand import (FlashBlock, NANDArray, PhysicalBlockAddress,
                            PhysicalPageAddress)


class PageAllocator:
    """Selects physical blocks/pages for incoming writes.

    The allocator keeps one "active" (partially written) block per
    (channel, die, plane) and rotates channel-first, then die, then plane.
    It never programs a page out of order within a block
    (NAND constraint; enforced by :class:`FlashBlock`).
    """

    def __init__(self, array: NANDArray) -> None:
        self.array = array
        self.config = array.config
        self._next_channel = 0
        self._next_die = 0
        self._next_plane = 0
        #: Active block per (channel, die, plane).
        self._active: Dict[tuple, PhysicalBlockAddress] = {}
        #: Separate active blocks for the cold write stream (GC / WL
        #: relocations under hot/cold separation), so relocated cold data
        #: stops interleaving with hot foreground writes in one block.
        self._active_cold: Dict[tuple, PhysicalBlockAddress] = {}
        #: Free-block cursors per (channel, die, plane).
        self._free_cursor: Dict[tuple, int] = {}

    # -- Free-block management ------------------------------------------------

    def _find_free_block(self, channel: int, die: int,
                         plane: int) -> Optional[PhysicalBlockAddress]:
        key = (channel, die, plane)
        plane_obj = self.array.die(channel, die).plane(plane)
        start = self._free_cursor.get(key, 0)
        blocks = plane_obj.block_count
        # Scan from the cursor, wrapping once.  Cold blocks ``[0, cold)``
        # are never free (the plane refuses to materialize them), so the
        # scan skips that prefix; the order is a dense wrap-around scan's.
        cold = plane_obj.cold_blocks
        is_free_block = plane_obj.is_free_block
        for index in chain(range(max(start, cold), blocks),
                           range(cold, start)):
            # Freeness is checked without materializing the block; only the
            # block actually selected gets built (lazy NAND array).
            if is_free_block(index):
                self._free_cursor[key] = (index + 1) % blocks
                return PhysicalBlockAddress(channel, die, plane, index)
        return None

    def _active_block(self, channel: int, die: int, plane: int, *,
                      cold: bool = False) -> FlashBlock:
        active = self._active_cold if cold else self._active
        key = (channel, die, plane)
        address = active.get(key)
        if address is not None:
            block = self.array.block(address)
            if not block.is_full:
                return block
        new_address = self._find_free_block(channel, die, plane)
        if new_address is None:
            raise SimulationError(
                f"no free blocks on channel {channel} die {die} plane "
                f"{plane}; garbage collection required")
        active[key] = new_address
        return self.array.block(new_address)

    # -- Allocation ------------------------------------------------------------

    def _advance_stripe(self) -> tuple:
        channel, die, plane = self._next_channel, self._next_die, self._next_plane
        self._next_channel = (self._next_channel + 1) % self.config.channels
        if self._next_channel == 0:
            self._next_die = (self._next_die + 1) % self.config.dies_per_channel
            if self._next_die == 0:
                self._next_plane = ((self._next_plane + 1)
                                    % self.config.planes_per_die)
        return channel, die, plane

    def allocate(self, lpa: int, *, cold: bool = False) -> PhysicalPageAddress:
        """Allocate and program one page for logical page ``lpa``.

        ``cold=True`` routes the page to the cold write stream's active
        blocks (hot/cold separation); the default path is bit-identical
        to the single-stream allocator.
        """
        channel, die, plane = self._advance_stripe()
        block = self._active_block(channel, die, plane, cold=cold)
        return self.array.program_page(block.address, lpa)

    def allocate_colocated(self, lpas: Iterable[int]) -> List[PhysicalPageAddress]:
        """Place a group of logical pages into a single block.

        Used to satisfy the Flash-Cosmos constraint that all operands of an
        in-flash bitwise AND live in the same block.  Raises if the group is
        larger than a block.
        """
        lpas = list(lpas)
        if len(lpas) > self.config.pages_per_block:
            raise SimulationError(
                f"cannot colocate {len(lpas)} pages in one block of "
                f"{self.config.pages_per_block} pages")
        channel, die, plane = self._advance_stripe()
        address = self._find_free_block(channel, die, plane)
        if address is None:
            raise SimulationError("no free block available for colocation")
        addresses = [self.array.program_page(address, lpa) for lpa in lpas]
        return addresses

    def allocation_balance(self) -> Dict[int, int]:
        """Programmed pages per channel (used to test striping fairness)."""
        balance: Dict[int, int] = {c: 0 for c in range(self.config.channels)}
        for block in self.array.iter_blocks():
            balance[block.address.channel] += block.write_cursor
        return balance
