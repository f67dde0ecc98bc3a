"""Trace-driven workload experiment: skewed/trace streams vs the kernels.

The paper evaluates six hand-built kernels with uniform, regular access
patterns.  Real storage traffic is neither: it is skewed (a hot set
absorbs most accesses) and irregular (streaming runs interleaved with
small random requests).  This experiment puts the open workload
registry's trace-driven entries on the same axes as two representative
hand-built kernels:

* ``jacobi-1d`` and ``XOR Filter`` -- uniform streaming kernels, the
  shapes the paper's figures sweep;
* ``zipf-hot`` -- the built-in seeded zipf hot/cold stream
  (:class:`~repro.workloads.traces.ZipfWorkload`, YCSB-style skew);
* ``mqsim-mini`` -- the checked-in MQSim-format fixture trace
  (:class:`~repro.workloads.traces.TraceWorkload`).

The sweep runs CPU / ISP / Conduit on a fresh (``default``) and a
near-end-of-life (``default-aged``) drive, so the experiment answers two
questions at once: does the offload benefit extend from uniform kernels
to skewed/trace-driven streams, and does that extension survive drive
age?  The fresh-vs-aged diff reuses
:func:`~repro.experiments.compare.compare_grids`, the same machinery as
``python -m repro compare``.

Registered as the ``traces`` experiment (``python -m repro run traces``);
``python -m repro run traces --trace FILE`` adds a user trace to the
sweep.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

from repro.core.metrics import ExecutionResult, geometric_mean
from repro.experiments.compare import compare_grids
from repro.experiments.registry import (ExperimentContext, ExperimentDef,
                                        Rows, register_experiment)
from repro.experiments.report import nested_to_rows
from repro.experiments.runner import speedup_table
from repro.workloads import MQSIM_MINI_NAME, ZIPF_HOT_NAME

#: Uniform hand-built kernels next to the trace-driven/generative pair.
TRACE_UNIFORM_WORKLOADS = ("jacobi-1d", "XOR Filter")
TRACE_SKEWED_WORKLOADS = (ZIPF_HOT_NAME, MQSIM_MINI_NAME)
TRACE_WORKLOADS = TRACE_UNIFORM_WORKLOADS + TRACE_SKEWED_WORKLOADS

#: Host baseline, the single-resource in-SSD policy, and Conduit.
TRACE_POLICIES = ("CPU", "ISP", "Conduit")

#: Fresh drive first (the comparison base), then near-end-of-life.
TRACE_PLATFORMS = ("default", "default-aged")
FRESH_PLATFORM = "default"
AGED_PLATFORM = "default-aged"


def _conduit_benefit(grid: Dict[Tuple[str, str], ExecutionResult],
                     workloads: Tuple[str, ...]) -> float:
    """Geomean Conduit-over-CPU speedup across ``workloads``."""
    ratios = [grid[(workload, "CPU")].total_time_ns /
              grid[(workload, "Conduit")].total_time_ns
              for workload in workloads
              if (workload, "CPU") in grid
              and (workload, "Conduit") in grid]
    return geometric_mean(ratios) if ratios else 0.0


def _skew_rows(grid: Dict[Tuple[str, str], ExecutionResult]
               ) -> List[Dict[str, object]]:
    """Uniform-vs-skewed comparison rows for one platform's grid."""
    rows: List[Dict[str, object]] = []
    for group, names in (("uniform", TRACE_UNIFORM_WORKLOADS),
                         ("skewed", TRACE_SKEWED_WORKLOADS)):
        for policy in TRACE_POLICIES:
            if policy == "CPU":
                continue
            ratios = [grid[(workload, "CPU")].total_time_ns /
                      grid[(workload, policy)].total_time_ns
                      for workload in names
                      if (workload, "CPU") in grid
                      and (workload, policy) in grid]
            rows.append({
                "group": group,
                "policy": policy,
                "workloads": len(ratios),
                "gmean_speedup": geometric_mean(ratios) if ratios else 0.0,
            })
    return rows


def _sections(ctx: ExperimentContext) -> "OrderedDict[str, List[Dict]]":
    sections: "OrderedDict[str, List[Dict[str, object]]]" = OrderedDict()
    policies = [p for p in ctx.definition.policies if p != "CPU"]
    for name in ctx.platform_names:
        grid = ctx.platform_grid(name)
        sections[f"{name}/speedup"] = nested_to_rows(
            speedup_table(grid, policies))
        sections[f"{name}/uniform-vs-skewed"] = _skew_rows(grid)
    if (FRESH_PLATFORM in ctx.platform_names
            and AGED_PLATFORM in ctx.platform_names):
        sections["fresh-vs-aged"] = compare_grids(
            ctx.platform_grid(FRESH_PLATFORM),
            ctx.platform_grid(AGED_PLATFORM))
    return sections


def _headline(ctx: ExperimentContext,
              sections: "OrderedDict[str, Rows]") -> List[str]:
    lines: List[str] = []
    for name in ctx.platform_names:
        grid = ctx.platform_grid(name)
        uniform = _conduit_benefit(grid, TRACE_UNIFORM_WORKLOADS)
        # Restrict to the skewed names actually swept: --trace adds user
        # workloads to the axis without touching these groups.
        skewed = _conduit_benefit(grid, TRACE_SKEWED_WORKLOADS)
        if uniform and skewed:
            lines.append(
                f"[{name}] Conduit vs CPU: {uniform:.2f}x on uniform "
                f"kernels, {skewed:.2f}x on skewed/trace streams "
                f"({100 * skewed / uniform:.0f}% of the uniform benefit)")
    if (FRESH_PLATFORM in ctx.platform_names
            and AGED_PLATFORM in ctx.platform_names):
        fresh = _conduit_benefit(ctx.platform_grid(FRESH_PLATFORM),
                                 TRACE_SKEWED_WORKLOADS)
        aged = _conduit_benefit(ctx.platform_grid(AGED_PLATFORM),
                                TRACE_SKEWED_WORKLOADS)
        if fresh and aged:
            survives = "survives" if aged > 1.0 else "does NOT survive"
            lines.append(
                f"Skewed/trace streams vs drive age: Conduit {fresh:.2f}x "
                f"CPU fresh -> {aged:.2f}x at near-EOL "
                f"({100 * aged / fresh:.0f}% retained; benefit {survives})")
    return lines


TRACES_DEF = register_experiment(ExperimentDef(
    name="traces",
    title="Trace-driven workloads -- skewed zipf and MQSim-trace streams "
          "vs the uniform kernels, fresh and aged",
    description="Speedup tables for two hand-built kernels next to the "
                "built-in zipf hot/cold stream and the MQSim fixture "
                "trace, on a fresh and a near-EOL drive, with a "
                "uniform-vs-skewed benefit comparison and a "
                "fresh-vs-aged diff.",
    policies=TRACE_POLICIES,
    workloads=TRACE_WORKLOADS,
    default_platforms=TRACE_PLATFORMS,
    build=_sections,
    headline=_headline,
    paper_refs=("Section 6: the evaluated kernels stream uniformly; "
                "trace-driven streams add the skew and interleaving "
                "real block traffic exhibits.",),
))
