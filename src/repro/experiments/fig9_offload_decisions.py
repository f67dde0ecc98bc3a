"""Fig. 9 -- fraction of instructions offloaded to each SSD resource.

For BW-Offloading, DM-Offloading, Conduit and Ideal, reports the fraction of
instructions executed on ISP, PuD-SSD and IFP for each workload.  The
paper's headline observations: Conduit's distribution closely tracks the
Ideal policy; memory-bound workloads (AES, XOR Filter) use ISP very
sparingly; compute-intensive workloads spread across multiple resources; and
both Conduit and Ideal avoid IFP for multiplication-heavy phases (LLaMA2).

Registered as the ``fig9`` experiment (``python -m repro run fig9``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.common import Resource
from repro.experiments.registry import (ExperimentContext, ExperimentDef,
                                        per_platform, register_experiment,
                                        run_experiment)
from repro.experiments.report import format_table
from repro.experiments.runner import (ExperimentConfig,
                                      default_sweep_cache_dir)

DECISION_POLICIES = ("BW-Offloading", "DM-Offloading", "Conduit", "Ideal")


def _rows_from_grid(grid, workload_names) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for workload_name in workload_names:
        for policy in DECISION_POLICIES:
            fractions = grid[(workload_name,
                              policy)].ssd_resource_fractions()
            rows.append({
                "workload": workload_name,
                "policy": policy,
                "isp": fractions.get(Resource.ISP, 0.0),
                "pud_ssd": fractions.get(Resource.PUD, 0.0),
                "ifp": fractions.get(Resource.IFP, 0.0),
            })
    return rows


def _sections(ctx: ExperimentContext, platform_name, grid):
    names = [workload.name for workload in ctx.workloads]
    return OrderedDict(fig9=_rows_from_grid(grid, names))


FIG9_DEF = register_experiment(ExperimentDef(
    name="fig9",
    title="Fig. 9 -- fraction of instructions per computation resource",
    description="Per-policy resource mix (ISP / PuD-SSD / IFP) across the "
                "six workloads.",
    policies=DECISION_POLICIES,
    build=per_platform(_sections),
), overwrite=True)


def run_offload_decisions(config: Optional[ExperimentConfig] = None, *,
                          parallel: bool = True,
                          workers: Optional[int] = None,
                          cache_dir: Optional[str] = None
                          ) -> List[Dict[str, object]]:
    """One row per (workload, policy) with per-resource fractions."""
    config = config or ExperimentConfig()
    result = run_experiment(FIG9_DEF, config, parallel=parallel,
                            workers=workers, cache_dir=cache_dir)
    names = [workload.name for workload in config.workloads()]
    return _rows_from_grid(result.platform_grid("default"), names)


def main(config: Optional[ExperimentConfig] = None) -> str:
    rows = run_offload_decisions(config, cache_dir=default_sweep_cache_dir())
    text = format_table(rows)
    print("Fig. 9 -- fraction of instructions per computation resource")
    print(text)
    return text
