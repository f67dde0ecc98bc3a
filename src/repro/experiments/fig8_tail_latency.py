"""Fig. 8 -- tail latency of Ideal, Conduit, BW-Offloading, DM-Offloading.

Reports the 99th and 99.99th percentile per-instruction latencies for the
two representative workloads the paper uses (LLaMA2 Inference and jacobi-1d).
The paper's headline: Conduit reduces the 99th (99.99th) percentile latency
by up to 5.6x (22.3x) versus DM-Offloading on LLaMA2 Inference because its
contention-aware decisions avoid piling work onto one resource.

Registered as the ``fig8`` experiment (``python -m repro run fig8``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from repro.experiments.registry import (ExperimentDef, per_platform,
                                        register_experiment)
from repro.workloads import Jacobi1DWorkload, LlamaInferenceWorkload

TAIL_POLICIES = ("Ideal", "Conduit", "BW-Offloading", "DM-Offloading")
TAIL_WORKLOADS = (LlamaInferenceWorkload, Jacobi1DWorkload)


def _sections(ctx, platform_name, grid):
    rows: List[Dict[str, object]] = []
    for workload_cls in TAIL_WORKLOADS:
        for policy in TAIL_POLICIES:
            result = grid[(workload_cls.name, policy)]
            rows.append({
                "workload": workload_cls.name,
                "policy": policy,
                "p99_us": result.p99_latency_ns / 1000.0,
                "p9999_us": result.p9999_latency_ns / 1000.0,
                "mean_us": result.mean_latency_ns() / 1000.0,
            })
    return OrderedDict(fig8=rows)


FIG8_DEF = register_experiment(ExperimentDef(
    name="fig8",
    title="Fig. 8 -- per-instruction tail latencies (p99 / p99.99)",
    description="Tail latency of Ideal, Conduit, BW- and DM-Offloading on "
                "LLaMA2 Inference and jacobi-1d.",
    policies=TAIL_POLICIES,
    workloads=tuple(cls.name for cls in TAIL_WORKLOADS),
    build=per_platform(_sections),
    paper_refs=("Conduit up to 5.6x (p99) / 22.3x (p99.99) below "
                "DM-Offloading on LLaMA2 Inference",),
), overwrite=True)
