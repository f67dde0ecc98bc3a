"""Device-lifetime experiment: does the offload benefit survive drive age?

The paper evaluates a fresh drive, but NDP offloading lives or dies on
the shared flash channels -- exactly the resource background GC and
wear-leveling consume as a drive ages.  This experiment sweeps the same
(workload x policy) axes over four drive states:

* ``default-feedback`` -- the fresh-drive baseline (contention-aware cost
  model on; the background engine never acts on a fresh drive);
* ``default-midlife`` -- a mid-life drive: moderate fragmentation, the
  background GC/WL engine turning maintenance into live channel traffic;
* ``default-aged`` -- a near-end-of-life drive under persistent GC
  pressure (free blocks below the GC threshold for the whole run);
* ``default-aged-adaptive`` -- the same near-EOL wear state with the
  adaptive-FTL ablation on (cost-benefit victim selection + hot/cold
  write separation).

Per variant it reports Fig. 7-style speedup and energy tables, plus a
GC-pressure table (relocations, erases, stall time, write amplification,
wear variance) built from the ``maintenance`` stats attached to every
result.  The headline is the paper-extending claim: Conduit's speedup
over CPU on a fresh drive next to the same ratio at near-EOL, via the
same :func:`~repro.experiments.compare.compare_grids` machinery as the
``python -m repro compare`` CLI.

Registered as the ``lifetime`` experiment
(``python -m repro run lifetime``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

from repro.core.metrics import ExecutionResult, geometric_mean
from repro.experiments.compare import compare_grids
from repro.experiments.registry import (ExperimentContext, ExperimentDef,
                                        Rows, register_experiment)
from repro.experiments.report import nested_to_rows
from repro.experiments.runner import energy_table, speedup_table

#: Workloads whose movement mix keeps the flash channels busy (the same
#: trio the contention ablation uses, so the two experiments' numbers are
#: directly comparable).
LIFETIME_WORKLOADS = ("LLM Training", "LlaMA2 Inference", "XOR Filter")

#: Host baseline, two in-SSD single-resource policies, and Conduit.
LIFETIME_POLICIES = ("CPU", "ISP", "PuD-SSD", "Conduit")

#: The drive-age axis, fresh first (the comparison base).
LIFETIME_PLATFORMS = ("default-feedback", "default-midlife",
                      "default-aged", "default-aged-adaptive")

#: The fresh baseline and the headline's aged counterpart.
FRESH_PLATFORM = "default-feedback"
AGED_PLATFORM = "default-aged"


def _pressure_rows(name: str,
                   grid: Dict[Tuple[str, str], ExecutionResult]
                   ) -> List[Dict[str, object]]:
    """One GC-pressure row per (workload, policy) run of a variant."""
    rows: List[Dict[str, object]] = []
    for (workload, policy) in sorted(grid):
        stats = grid[(workload, policy)].maintenance
        if stats is None:
            continue
        rows.append({
            "workload": workload,
            "policy": policy,
            "gc_pages": stats.gc_relocated_pages,
            "gc_erases": stats.gc_erased_blocks,
            "wl_pages": stats.wl_migrated_pages,
            "stall_ms": stats.foreground_stall_ns / 1e6,
            "busy_ms": stats.background_busy_ns / 1e6,
            "write_amp": stats.write_amplification,
            "wear_var": stats.erase_count_variance,
            "free_frac": stats.free_block_fraction,
        })
    return rows


def _sections(ctx: ExperimentContext) -> "OrderedDict[str, List[Dict]]":
    sections: "OrderedDict[str, List[Dict[str, object]]]" = OrderedDict()
    policies = [p for p in LIFETIME_POLICIES if p != "CPU"]
    for name in ctx.platform_names:
        grid = ctx.platform_grid(name)
        sections[f"{name}/speedup"] = nested_to_rows(
            speedup_table(grid, policies))
        energy = energy_table(grid, LIFETIME_POLICIES)
        sections[f"{name}/energy"] = [
            {"workload": workload, "policy": policy, **parts}
            for workload, row in energy.items()
            for policy, parts in row.items()]
        sections[f"{name}/gc-pressure"] = _pressure_rows(name, grid)
    if (FRESH_PLATFORM in ctx.platform_names
            and AGED_PLATFORM in ctx.platform_names):
        sections["fresh-vs-aged"] = compare_grids(
            ctx.platform_grid(FRESH_PLATFORM),
            ctx.platform_grid(AGED_PLATFORM))
    return sections


def _conduit_benefit(grid: Dict[Tuple[str, str], ExecutionResult]
                     ) -> float:
    """Geomean Conduit-over-CPU speedup across the swept workloads."""
    ratios = [grid[(workload, "CPU")].total_time_ns /
              grid[(workload, "Conduit")].total_time_ns
              for workload in {w for w, _ in grid}
              if (workload, "CPU") in grid and (workload, "Conduit") in grid]
    return geometric_mean(ratios) if ratios else 0.0


def _headline(ctx: ExperimentContext,
              sections: "OrderedDict[str, Rows]") -> List[str]:
    lines: List[str] = []
    benefits = {name: _conduit_benefit(ctx.platform_grid(name))
                for name in ctx.platform_names}
    fresh = benefits.get(FRESH_PLATFORM)
    aged = benefits.get(AGED_PLATFORM)
    if fresh and aged:
        survives = "survives" if aged > 1.0 else "does NOT survive"
        lines.append(
            f"Offload benefit vs drive age: Conduit {fresh:.2f}x CPU "
            f"fresh -> {aged:.2f}x at near-EOL "
            f"({100 * aged / fresh:.0f}% retained; benefit {survives})")
    for name in ctx.platform_names:
        grid = ctx.platform_grid(name)
        total_gc = sum(result.maintenance.gc_relocated_pages
                       for result in grid.values()
                       if result.maintenance is not None)
        total_erase = sum(result.maintenance.gc_erased_blocks +
                          result.maintenance.wl_erased_blocks
                          for result in grid.values()
                          if result.maintenance is not None)
        samples = max((result.maintenance.contention_samples
                       for result in grid.values()
                       if result.maintenance is not None), default=0)
        lines.append(
            f"[{name}] Conduit {benefits[name]:.2f}x CPU; background GC "
            f"relocated {total_gc} pages, erased {total_erase} blocks "
            f"(contention monitor saw {samples} movements)")
    return lines


LIFETIME_DEF = register_experiment(ExperimentDef(
    name="lifetime",
    title="Device lifetime -- offload benefit vs drive age under live "
          "GC/wear traffic",
    description="Fig. 7-style speedup/energy plus GC-pressure tables "
                "across fresh / mid-life / near-EOL drive states, with "
                "background GC and wear-leveling as real traffic on the "
                "shared flash channels (and the adaptive-FTL ablation at "
                "near-EOL).",
    policies=LIFETIME_POLICIES,
    workloads=LIFETIME_WORKLOADS,
    default_platforms=LIFETIME_PLATFORMS,
    build=_sections,
    headline=_headline,
    paper_refs=("Section 4.4: GC and wear-leveling run in both regular "
                "I/O and computation mode; the lifetime axis makes their "
                "channel traffic a live contention source instead of a "
                "fresh-drive assumption.",),
))
