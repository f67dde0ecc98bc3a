"""Dependency slicer: group the optimized IR into ready waves.

The opt-in wave-batched offload engine
(``PlatformConfig.batched_offload=True``) precollects offload-decision
features for several instructions at once.  That is only sound when no
instruction in the group can perturb another group member's features
before the member's own decision time, so the slicer cuts the
instruction stream into contiguous program-order *waves* whose members
are pairwise

* **dependence-free** -- no member names another member in its
  ``depends_on`` list (no member consumes another member's output), and
* **page-disjoint** -- no member's touched pages (source *and*
  destination runs, at LPA-run granularity) overlap another member's.
  Read-read sharing conflicts too: dispatching one reader *moves* the
  shared operand to the reader's home location, which would invalidate
  the other member's precollected location histogram.

Under these two conditions the only ways a member's dispatch can still
perturb a later member's features are capacity evictions (tracked by
``SSDPlatform.eviction_epoch``) and mapping-cache membership changes
(tracked by ``MappingCache.version``); the offloader revalidates both
snapshots before every member and falls back to the per-instruction
path on any hazard, which is what makes the wave engine
bit-exact by construction.

Plans are memoized on the program (:class:`VectorProgram` invalidates on
mutation): array placement is deterministic per program, so the layout
resolution and the O(waves x runs) overlap scan run once per compiled
program instead of once per sweep run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.compiler.ir import VectorProgram
from repro.core.layout import ArrayLayout

#: Upper bound on wave length.  Purely a working-set knob -- any value
#: yields bit-identical results (the precollected arrays just cover fewer
#: or more members) -- so it is a module constant, not a config field the
#: sweep cache would have to key or exempt.
MAX_WAVE = 32


@dataclass(frozen=True)
class WavePlan:
    """Waves plus the per-instruction operand-run resolutions they reuse."""

    #: Instruction indices (positions in ``program.instructions``), one
    #: tuple per wave, covering every instruction exactly once in program
    #: order.
    waves: Tuple[Tuple[int, ...], ...]
    #: Per instruction: the source operands' ``(base_lpa, count)`` runs.
    source_runs: Tuple[Tuple[Tuple[int, int], ...], ...]
    #: Per instruction: the destination run (``None`` when no dest).
    dest_runs: Tuple[Optional[Tuple[int, int]], ...]
    #: Each wave's instructions and source runs, pre-sliced so the
    #: dispatch loop hands them straight to the collector instead of
    #: rebuilding member lists on every run of the (cached) plan.
    wave_instructions: Tuple[tuple, ...]
    wave_sources: Tuple[tuple, ...]


def wave_plan(program: VectorProgram, layout: ArrayLayout,
              max_wave: int = MAX_WAVE) -> WavePlan:
    """Slice ``program`` into ready waves under ``layout``'s placement."""
    key = (layout.page_size_bytes, max_wave)
    cached = program._wave_plan
    if cached is not None and cached[0] == key:
        return cached[1]

    run_of = layout.page_run_of
    source_runs: List[Tuple[Tuple[int, int], ...]] = []
    dest_runs: List[Optional[Tuple[int, int]]] = []
    waves: List[Tuple[int, ...]] = []
    current: List[int] = []
    current_uids: set = set()
    #: ``(base, end)`` LPA intervals touched by the current wave.
    intervals: List[Tuple[int, int]] = []
    for index, instruction in enumerate(program.instructions):
        element_bits = instruction.element_bits
        runs = tuple(run_of(ref, element_bits)
                     for ref in instruction.array_sources)
        dest = (run_of(instruction.dest, element_bits)
                if instruction.dest is not None else None)
        source_runs.append(runs)
        dest_runs.append(dest)
        touched = runs + ((dest,) if dest is not None else ())
        conflict = len(current) >= max_wave
        if not conflict:
            for dep in instruction.depends_on:
                if dep in current_uids:
                    conflict = True
                    break
        if not conflict:
            for base, count in touched:
                end = base + count
                for other_base, other_end in intervals:
                    if base < other_end and other_base < end:
                        conflict = True
                        break
                if conflict:
                    break
        if conflict and current:
            waves.append(tuple(current))
            current = []
            current_uids = set()
            intervals = []
        current.append(index)
        current_uids.add(instruction.uid)
        for base, count in touched:
            intervals.append((base, base + count))
    if current:
        waves.append(tuple(current))

    instructions = program.instructions
    plan = WavePlan(
        tuple(waves), tuple(source_runs), tuple(dest_runs),
        wave_instructions=tuple(
            tuple(instructions[i] for i in wave) for wave in waves),
        wave_sources=tuple(
            tuple(source_runs[i] for i in wave) for wave in waves))
    program._wave_plan = (key, plan)
    return plan
