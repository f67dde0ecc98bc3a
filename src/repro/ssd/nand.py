"""NAND flash subsystem model.

Models the physical organisation described in Section 2.1 / Fig. 1 and 3 of
the paper: channels connect flash controllers to flash chips; each chip has
1-4 independently operating dies; each die has planes; each plane holds
blocks of pages; a page is the read/program granularity and maps to one
wordline of a block.

The model tracks page state (free / valid / invalid), per-block erase
counts and per-die occupancy, which is what the FTL, garbage collector and
wear-leveler need.  Timing comes from :class:`repro.ssd.config.NANDConfig`
and is consumed by the flash controller and the in-flash processing model.
"""

from __future__ import annotations

import enum
from typing import (AbstractSet, Dict, Iterator, List, Mapping, NamedTuple,
                    Optional)

from repro.common import SimulationError
from repro.ssd.config import NANDConfig


class PageState(enum.Enum):
    FREE = "free"
    VALID = "valid"
    INVALID = "invalid"


class PhysicalPageAddress(NamedTuple):
    """Physical address of one flash page.

    A named tuple rather than a frozen dataclass: the same fields,
    equality, hash and ordering, but about half the construction cost,
    and the cyclic garbage collector stops tracking it (it holds only
    ints) -- the FTL mapping keeps one per mapped page.
    """

    channel: int
    die: int
    plane: int
    block: int
    page: int

    def block_address(self) -> "PhysicalBlockAddress":
        return PhysicalBlockAddress(self.channel, self.die, self.plane,
                                    self.block)


class PhysicalBlockAddress(NamedTuple):
    """Physical address of one flash block (a named tuple, like pages)."""

    channel: int
    die: int
    plane: int
    block: int

    def page(self, page: int) -> PhysicalPageAddress:
        return PhysicalPageAddress(self.channel, self.die, self.plane,
                                   self.block, page)


class FlashBlock:
    """One erase block: a column of pages sharing wordlines.

    Page state is stored sparsely (only programmed pages are tracked) so
    that instantiating a full-size multi-terabyte SSD with hundreds of
    thousands of blocks stays cheap -- a block that has never been
    programmed carries no per-page storage at all.
    """

    __slots__ = ("address", "pages", "erase_count", "write_cursor",
                 "_stored", "_invalid")

    def __init__(self, address: PhysicalBlockAddress, pages: int) -> None:
        self.address = address
        self.pages = pages
        self.erase_count = 0
        #: Pages are programmed strictly in order within a block (NAND
        #: constraint); this cursor is the next programmable page index.
        self.write_cursor = 0
        #: Logical page stored in each *valid* physical page.
        self._stored: Dict[int, int] = {}
        #: Physical page indices that have been invalidated.
        self._invalid: set = set()

    @property
    def page_states(self) -> List[PageState]:
        """Dense page-state view (built on demand; used by tests)."""
        states = []
        for page in range(self.pages):
            if page >= self.write_cursor:
                states.append(PageState.FREE)
            elif page in self._invalid:
                states.append(PageState.INVALID)
            else:
                states.append(PageState.VALID)
        return states

    def state_of(self, page: int) -> PageState:
        if page >= self.write_cursor:
            return PageState.FREE
        if page in self._invalid:
            return PageState.INVALID
        return PageState.VALID

    def stored_lpa_of(self, page: int) -> Optional[int]:
        return self._stored.get(page)

    @property
    def free_pages(self) -> int:
        return self.pages - self.write_cursor

    @property
    def valid_pages(self) -> int:
        return len(self._stored)

    @property
    def invalid_pages(self) -> int:
        return len(self._invalid)

    @property
    def is_full(self) -> bool:
        return self.write_cursor >= self.pages

    def program(self, lpa: int) -> int:
        """Program the next free page with logical page ``lpa``.

        Returns the physical page index that was programmed.
        """
        if self.is_full:
            raise SimulationError(
                f"block {self.address} is full; erase before programming")
        page = self.write_cursor
        self._stored[page] = lpa
        self.write_cursor += 1
        return page

    def fill(self, pages: int, stored: Mapping[int, int],
             invalid: AbstractSet[int]) -> None:
        """Program pages ``[0, pages)`` of an erased block in one step.

        ``stored`` maps each valid page to its logical page and the page
        indices in ``invalid`` are left invalidated; together they must
        cover the fill exactly once.  The resulting state equals
        programming the pages in order and then invalidating ``invalid``.
        Both collections are copied, so callers may share them.
        """
        if self.write_cursor:
            raise SimulationError(
                f"block {self.address} is not erased; cannot fill it")
        if not 0 < pages <= self.pages:
            raise SimulationError(
                f"cannot fill {pages} pages into block {self.address} "
                f"of {self.pages} pages")
        if invalid and (min(invalid) < 0 or max(invalid) >= pages):
            raise SimulationError(
                f"invalid pages {sorted(invalid)} fall outside the "
                f"{pages}-page fill of block {self.address}")
        if (len(stored) + len(invalid) != pages
                or (stored and (min(stored) < 0 or max(stored) >= pages))
                or not stored.keys().isdisjoint(invalid)):
            raise SimulationError(
                f"valid pages {sorted(stored)} and invalid pages "
                f"{sorted(invalid)} do not partition the {pages}-page fill "
                f"of block {self.address}")
        self._stored = dict(stored)
        self._invalid = set(invalid)
        self.write_cursor = pages

    def invalidate(self, page: int) -> None:
        # A page is valid exactly while it holds a logical page: free and
        # already-invalid pages are both absent from ``_stored``.
        try:
            del self._stored[page]
        except KeyError:
            raise SimulationError(
                f"page {page} of block {self.address} is not valid"
            ) from None
        self._invalid.add(page)

    def erase(self) -> None:
        self._stored.clear()
        self._invalid.clear()
        self.write_cursor = 0
        self.erase_count += 1

    def valid_lpas(self) -> List[int]:
        """Logical pages that must be relocated before erasing this block."""
        return list(self._stored.values())


class FlashPlane:
    """A plane: a set of blocks sharing the die's peripheral circuitry.

    Blocks are materialized lazily: a full-size SSD has hundreds of
    thousands of blocks, and eagerly building a :class:`FlashBlock` object
    for each dominated platform-construction time.  A block that has never
    been touched is, by definition, free and erased zero times, so only
    touched blocks carry objects; aggregate queries account for the
    untouched remainder arithmetically.
    """

    def __init__(self, channel: int, die: int, plane: int,
                 blocks: int, pages_per_block: int) -> None:
        self.channel = channel
        self.die = die
        self.plane = plane
        self.block_count = blocks
        self.pages_per_block = pages_per_block
        self._blocks: Dict[int, FlashBlock] = {}
        #: Blocks ``[0, cold_blocks)`` hold *static cold data* placed by a
        #: drive-age profile: fully valid, never a GC/WL victim, invisible
        #: to the allocator -- so, like untouched free blocks, they are
        #: accounted arithmetically instead of being materialized (a
        #: near-EOL full-size drive would otherwise need ~500k block
        #: objects and ~50M page entries).  :meth:`block` refuses to
        #: materialize them, so the count is exact for the drive's life.
        self.cold_blocks = 0
        #: Erase count attributed to each cold block.
        self.cold_erase_count = 0

    def block(self, index: int) -> FlashBlock:
        block = self._blocks.get(index)
        if block is None:
            if not 0 <= index < self.block_count:
                raise SimulationError(
                    f"block {index} out of range for plane "
                    f"({self.channel}, {self.die}, {self.plane})")
            if index < self.cold_blocks:
                raise SimulationError(
                    f"block {index} of plane ({self.channel}, {self.die}, "
                    f"{self.plane}) holds static cold data and cannot be "
                    "materialized")
            block = FlashBlock(
                PhysicalBlockAddress(self.channel, self.die, self.plane,
                                     index),
                self.pages_per_block)
            self._blocks[index] = block
        return block

    def is_free_block(self, index: int) -> bool:
        """Whether a block is free, without materializing it."""
        block = self._blocks.get(index)
        if block is None:
            return index >= self.cold_blocks
        return block.write_cursor == 0 and block.valid_pages == 0

    def materialized_blocks(self) -> Iterator[FlashBlock]:
        """The blocks that have been touched (others are free and erased)."""
        return iter(self._blocks.values())


class FlashDie:
    """A die: the unit of independent command execution on a chip."""

    def __init__(self, channel: int, die: int, planes: int,
                 blocks_per_plane: int, pages_per_block: int) -> None:
        self.channel = channel
        self.die = die
        self.planes = [
            FlashPlane(channel, die, p, blocks_per_plane, pages_per_block)
            for p in range(planes)
        ]

    def plane(self, index: int) -> FlashPlane:
        return self.planes[index]


class NANDArray:
    """The complete NAND flash array of the SSD."""

    def __init__(self, config: NANDConfig) -> None:
        self.config = config
        self.dies = [
            [FlashDie(channel, die, config.planes_per_die,
                      config.blocks_per_plane, config.pages_per_block)
             for die in range(config.dies_per_channel)]
            for channel in range(config.channels)
        ]
        # Operation counters used by the energy model and tests.
        self.reads = 0
        self.programs = 0
        self.erases = 0
        # Free-block counter maintained incrementally so that GC trigger
        # checks stay O(1) even for full-size (multi-terabyte) geometries.
        self._free_blocks = self.config.blocks

    # -- Navigation --------------------------------------------------------

    def die(self, channel: int, die: int) -> FlashDie:
        return self.dies[channel][die]

    def block(self, address: PhysicalBlockAddress) -> FlashBlock:
        return (self.dies[address.channel][address.die]
                .planes[address.plane].block(address.block))

    def iter_planes(self) -> Iterator[FlashPlane]:
        """Iterate over every plane in geometry order."""
        for channel_dies in self.dies:
            for die in channel_dies:
                yield from die.planes

    def iter_blocks(self) -> Iterator[FlashBlock]:
        """Iterate over the *materialized* blocks.

        Untouched blocks are free, hold no valid or invalid pages and have
        an erase count of zero -- and cold blocks (drive-age profiles) are
        deliberately invisible here, exactly as static data pinned outside
        the FTL's reach -- so every consumer of this iterator (GC victim
        selection, wear-leveling, occupancy statistics) sees the same
        answers as a dense scan of the reclaimable population.
        """
        for plane in self.iter_planes():
            yield from plane.materialized_blocks()

    # -- Drive aging ---------------------------------------------------------

    def mark_cold_blocks(self, channel: int, die: int, plane: int,
                         count: int, erase_count: int = 0) -> None:
        """Declare blocks ``[0, count)`` of a plane as static cold data.

        Cold blocks are fully valid (they hold a drive-age profile's
        replayed history), so they are *not free*: the free-block counter
        drops by ``count`` without materializing anything.  Must run
        before the plane is otherwise touched.
        """
        plane_obj = self.dies[channel][die].planes[plane]
        if not 0 <= count <= plane_obj.block_count:
            raise SimulationError(
                f"cannot mark {count} cold blocks in a plane of "
                f"{plane_obj.block_count}")
        if plane_obj.cold_blocks:
            raise SimulationError(
                f"plane ({channel}, {die}, {plane}) already has cold blocks")
        for index in plane_obj._blocks:
            if index < count:
                raise SimulationError(
                    f"block {index} of plane ({channel}, {die}, {plane}) is "
                    "already materialized; age the drive before placement")
        plane_obj.cold_blocks = count
        plane_obj.cold_erase_count = erase_count
        self._free_blocks -= count

    # -- State-changing operations ------------------------------------------

    def program_page(self, block_address: PhysicalBlockAddress,
                     lpa: int) -> PhysicalPageAddress:
        block = self.block(block_address)
        was_free = block.write_cursor == 0
        page = block.program(lpa)
        if was_free:
            self._free_blocks -= 1
        self.programs += 1
        return block_address.page(page)

    def program_fragment(self, block_address: PhysicalBlockAddress,
                         pages: int, stored: Mapping[int, int],
                         invalid: AbstractSet[int]) -> FlashBlock:
        """Bulk-program an erased block (see :meth:`FlashBlock.fill`).

        State-equivalent to one :meth:`program_page` per page of the fill
        followed by :meth:`invalidate_page` on each page in ``invalid``;
        used to install a drive-age image's fragmented blocks without
        replaying them page by page.
        """
        block = self.block(block_address)
        block.fill(pages, stored, invalid)
        self._free_blocks -= 1
        self.programs += pages
        return block

    def read_page(self, address: PhysicalPageAddress) -> Optional[int]:
        """The logical page stored at ``address`` (``None`` unless valid)."""
        channel, die, plane, block, page = address
        flash_block = self.dies[channel][die].planes[plane].block(block)
        self.reads += 1
        return flash_block.stored_lpa_of(page)

    def invalidate_page(self, address: PhysicalPageAddress) -> None:
        channel, die, plane, block, page = address
        self.dies[channel][die].planes[plane].block(block).invalidate(page)

    def erase_block(self, address: PhysicalBlockAddress) -> None:
        block = self.block(address)
        was_used = block.write_cursor > 0
        block.erase()
        if was_used:
            self._free_blocks += 1
        self.erases += 1

    # -- Aggregate statistics ------------------------------------------------

    @property
    def total_blocks(self) -> int:
        return self.config.blocks

    def free_block_count(self) -> int:
        return self._free_blocks

    def valid_page_count(self) -> int:
        return sum(block.valid_pages for block in self.iter_blocks())

    def _erase_count_moments(self) -> tuple:
        """(min, max, sum, sum-of-squares, total) over *all* blocks.

        Materialized blocks contribute their own counts; cold blocks
        (never materialized) contribute their plane's cold erase count;
        the plain untouched remainder contributes zeros -- so the moments
        match a dense scan without materializing anything.
        """
        counts = []
        cold_total = 0
        cold_sum = 0
        cold_sq = 0
        cold_min: Optional[int] = None
        cold_max = 0
        for plane in self.iter_planes():
            counts.extend(block.erase_count
                          for block in plane.materialized_blocks())
            cold = plane.cold_blocks
            if cold:
                erase_count = plane.cold_erase_count
                cold_total += cold
                cold_sum += cold * erase_count
                cold_sq += cold * erase_count * erase_count
                cold_min = (erase_count if cold_min is None
                            else min(cold_min, erase_count))
                cold_max = max(cold_max, erase_count)
        total_blocks = self.total_blocks
        plain_untouched = total_blocks - len(counts) - cold_total
        minima = []
        if counts:
            minima.append(min(counts))
        if cold_total:
            minima.append(cold_min)
        if plain_untouched:
            minima.append(0)
        minimum = min(minima) if minima else 0
        maximum = max(max(counts, default=0), cold_max)
        total_sum = sum(counts) + cold_sum
        total_sq = sum(count * count for count in counts) + cold_sq
        return minimum, maximum, total_sum, total_sq, total_blocks

    def erase_count_stats(self) -> tuple:
        """Return (min, mean, max) erase counts across all blocks.

        Computed over the materialized blocks, the cold remainder and the
        untouched remainder, so the statistics match a dense scan.
        """
        minimum, maximum, total_sum, _, total = self._erase_count_moments()
        mean = total_sum / total if total else 0.0
        return minimum, mean, maximum

    def erase_count_variance(self) -> float:
        """Population variance of per-block erase counts (wear spread)."""
        _, _, total_sum, total_sq, total = self._erase_count_moments()
        if not total:
            return 0.0
        mean = total_sum / total
        return max(0.0, total_sq / total - mean * mean)

    # -- Timing helpers ------------------------------------------------------

    def read_time_ns(self) -> float:
        """SLC-mode page sensing latency (tR)."""
        return self.config.read_latency_ns

    def program_time_ns(self) -> float:
        return self.config.program_latency_ns

    def erase_time_ns(self) -> float:
        return self.config.erase_latency_ns
