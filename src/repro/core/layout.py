"""Mapping of application arrays onto logical pages of the SSD.

Conduit addresses all data at logical-page granularity (Section 4.4): the
FTL's L2P table tracks where each page physically lives, and the offloader
reasons about operand locations in units of logical pages.  This module maps
the compiler-level view (arrays and element ranges) onto logical page
numbers so the runtime, the coherence directory and the data-movement engine
all speak the same address space.

Arrays map to *contiguous* logical page ranges, so every operand region is
one contiguous LPA run.  :meth:`ArrayLayout.page_run_of` resolves an operand
to its ``(base_lpa, page_count)`` run -- the currency of the offloader and
the data-movement engine -- and both it and :meth:`ArrayLayout.pages_of` are
memoized so the offloader, the feature collector and the runtimes never
rebuild per-instruction page lists for operands they have already seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.common import SimulationError
from repro.core.compiler.ir import ArrayRef, ArraySpec


@dataclass(frozen=True)
class ArrayPlacement:
    """Placement of one array: base logical page and page count."""

    spec: ArraySpec
    base_lpa: int
    pages: int

    @property
    def end_lpa(self) -> int:
        return self.base_lpa + self.pages


class ArrayLayout:
    """Assigns logical page ranges to arrays and resolves operand pages."""

    def __init__(self, page_size_bytes: int) -> None:
        if page_size_bytes <= 0:
            raise SimulationError("page size must be positive")
        self.page_size_bytes = page_size_bytes
        self._next_lpa = 0
        self._placements: Dict[str, ArrayPlacement] = {}
        #: Memoized operand resolutions keyed by (ref, element_bits).
        self._run_cache: Dict[Tuple[ArrayRef, int], Tuple[int, int]] = {}

    # -- Construction -----------------------------------------------------------

    def place(self, spec: ArraySpec) -> ArrayPlacement:
        """Allocate a contiguous logical page range for ``spec``."""
        if spec.name in self._placements:
            return self._placements[spec.name]
        pages = spec.pages(self.page_size_bytes)
        placement = ArrayPlacement(spec=spec, base_lpa=self._next_lpa,
                                   pages=pages)
        self._placements[spec.name] = placement
        self._next_lpa += pages
        return placement

    def place_all(self, specs: Iterable[ArraySpec]) -> None:
        for spec in specs:
            self.place(spec)

    # -- Queries ------------------------------------------------------------------

    def placement(self, array: str) -> ArrayPlacement:
        if array not in self._placements:
            raise SimulationError(f"array '{array}' has no placement")
        return self._placements[array]

    @property
    def total_pages(self) -> int:
        return sum(p.pages for p in self._placements.values())

    def all_lpas(self) -> List[int]:
        lpas: List[int] = []
        for placement in self._placements.values():
            lpas.extend(range(placement.base_lpa, placement.end_lpa))
        return lpas

    def page_run_of(self, ref: ArrayRef, element_bits: int
                    ) -> Tuple[int, int]:
        """Contiguous LPA run ``(base_lpa, count)`` of an operand region.

        Arrays occupy contiguous logical page ranges, so a contiguous
        element region always resolves to one contiguous run.  Resolutions
        are memoized: repeated instructions over the same operand regions
        (the common case in vectorized loops) hit the cache.
        """
        key = (ref, element_bits)
        run = self._run_cache.get(key)
        if run is None:
            placement = self.placement(ref.array)
            start_byte = ref.offset * element_bits // 8
            end_byte = ref.end * element_bits // 8
            first = start_byte // self.page_size_bytes
            last = max(first, math.ceil(end_byte / self.page_size_bytes) - 1)
            first = min(first, placement.pages - 1)
            last = min(last, placement.pages - 1)
            run = (placement.base_lpa + first, last - first + 1)
            self._run_cache[key] = run
        return run

    def pages_of(self, ref: ArrayRef, element_bits: int) -> List[int]:
        """Logical pages covered by an operand region.

        The resolution itself is memoized through :meth:`page_run_of`; the
        returned list is freshly built, so callers may mutate it.  Hot-path
        consumers should use :meth:`page_run_of` directly and avoid
        materializing page lists at all.
        """
        base, count = self.page_run_of(ref, element_bits)
        return list(range(base, base + count))

    def colocation_groups(self, pages_per_block: int
                          ) -> List[List[int]]:
        """Groups of logical pages that should share a flash block.

        Groups consecutive pages of each array into block-sized chunks so
        that in-flash bitwise operations over an array region find their
        operands colocated (Flash-Cosmos layout constraint, Section 4.4).
        Chunks are sliced directly from each placement's LPA range, so no
        full per-array page list is materialized; single-page groups carry
        no colocation constraint and are skipped.
        """
        if pages_per_block <= 0:
            raise SimulationError("pages_per_block must be positive")
        groups: List[List[int]] = []
        for placement in self._placements.values():
            for start in range(placement.base_lpa, placement.end_lpa,
                               pages_per_block):
                end = min(start + pages_per_block, placement.end_lpa)
                if end - start > 1:
                    groups.append(list(range(start, end)))
        return groups
