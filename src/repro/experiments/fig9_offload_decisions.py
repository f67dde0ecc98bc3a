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
from typing import Dict, List

from repro.common import Resource
from repro.experiments.registry import (ExperimentContext, ExperimentDef,
                                        per_platform, register_experiment)

DECISION_POLICIES = ("BW-Offloading", "DM-Offloading", "Conduit", "Ideal")


def _sections(ctx: ExperimentContext, platform_name, grid):
    rows: List[Dict[str, object]] = []
    for workload in ctx.workloads:
        for policy in DECISION_POLICIES:
            fractions = grid[(workload.name,
                              policy)].ssd_resource_fractions()
            rows.append({
                "workload": workload.name,
                "policy": policy,
                "isp": fractions.get(Resource.ISP, 0.0),
                "pud_ssd": fractions.get(Resource.PUD, 0.0),
                "ifp": fractions.get(Resource.IFP, 0.0),
            })
    return OrderedDict(fig9=rows)


FIG9_DEF = register_experiment(ExperimentDef(
    name="fig9",
    title="Fig. 9 -- fraction of instructions per computation resource",
    description="Per-policy resource mix (ISP / PuD-SSD / IFP) across the "
                "six workloads.",
    policies=DECISION_POLICIES,
    build=per_platform(_sections),
), overwrite=True)
