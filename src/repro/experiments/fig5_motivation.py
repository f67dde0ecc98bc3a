"""Fig. 5 -- effectiveness of prior offloading approaches.

Reproduces the motivation study of Section 3.2: speedups of GPU, ISP,
PuD-SSD, Flash-Cosmos, Ares-Flash, BW-Offloading, DM-Offloading and an Ideal
policy over the host CPU across the six workloads, plus the geometric mean.
The paper's headline observations:

* DM-Offloading is the best prior offloading technique (~2.3x over CPU);
* it still trails the Ideal policy by ~2.5x on average;
* BW-Offloading underperforms DM-Offloading (~11%);
* the GPU is comparable to DM-Offloading on the data-parallel kernels.

Registered as the ``fig5`` experiment (``python -m repro run fig5``).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.experiments.registry import (ExperimentDef, per_platform,
                                        register_experiment)
from repro.experiments.report import nested_to_rows
from repro.experiments.runner import FIG5_POLICIES, speedup_table

#: Policies normalized against the CPU baseline in the Fig. 5 table.
_TABLE_POLICIES = tuple(policy for policy in FIG5_POLICIES
                        if policy != "CPU")


def _sections(ctx, platform_name, grid):
    return OrderedDict(
        fig5=nested_to_rows(speedup_table(grid, _TABLE_POLICIES)))


FIG5_DEF = register_experiment(ExperimentDef(
    name="fig5",
    title="Fig. 5 -- speedup of prior offloading approaches over CPU",
    description="Motivation study: every prior technique plus the Ideal "
                "policy, normalized to the host CPU.",
    policies=FIG5_POLICIES,
    build=per_platform(_sections),
    paper_refs=("DM-Offloading ~2.3x CPU, ~2.5x below Ideal",
                "BW-Offloading ~11% below DM-Offloading"),
), overwrite=True)
