"""Fig. 4 -- case study on offloading computations across SSD resources.

Reproduces the motivational case study of Section 3.1: for an I/O-intensive,
a more compute-intensive and a mixed workload, execute under four models --
outside-storage processing (OSP, host CPU), in-storage processing (ISP
only), in-flash processing (IFP only) and a *naive* IFP+ISP combination that
alternates between the two without considering cost -- and report execution
time normalized to OSP together with its breakdown (compute, host-SSD data
movement, SSD-internal data movement, flash read).

All four execution models resolve through the policy registry (OSP is the
host-CPU baseline, IFP is Ares-Flash, the naive combination is the
registered ``IFP+ISP`` policy), so the whole case study is a single
parallel-shardable sweep.  Registered as the ``fig4`` experiment
(``python -m repro run fig4``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from repro.core.metrics import ExecutionResult
# Re-exported for backwards compatibility: the naive policy used to be
# defined in this module before it joined the policy registry.
from repro.core.offload.policies import NaiveIFPISPPolicy  # noqa: F401
from repro.experiments.registry import (ExperimentDef, per_platform,
                                        register_experiment)
from repro.workloads import (Heat3DWorkload, LLMTrainingWorkload,
                             XORFilterWorkload)

#: Representative workload per Fig. 4 category.
CATEGORY_WORKLOADS = {
    "I/O-Intensive": XORFilterWorkload,
    "More Compute-Intensive": Heat3DWorkload,
    "Mixed": LLMTrainingWorkload,
}

EXECUTION_MODELS = ("OSP", "ISP", "IFP", "IFP+ISP")

#: Execution model -> registered policy name.
MODEL_POLICIES = {
    "OSP": "CPU",
    "ISP": "ISP",
    "IFP": "Ares-Flash",
    "IFP+ISP": "IFP+ISP",
}


def _breakdown_row(category: str, model: str, result: ExecutionResult,
                   osp_time: float) -> Dict[str, object]:
    shares = result.breakdown.normalized()
    normalized = result.total_time_ns / osp_time if osp_time else 0.0
    return {
        "category": category,
        "model": model,
        "normalized_time": normalized,
        "compute": normalized * shares["compute"],
        "host_data_movement": normalized * shares["host_data_movement"],
        "internal_data_movement":
            normalized * shares["internal_data_movement"],
        "flash_read": normalized * shares["flash_read"],
    }


def _sections(ctx, platform_name, grid):
    rows: List[Dict[str, object]] = []
    for category, workload_cls in CATEGORY_WORKLOADS.items():
        osp = grid[(workload_cls.name, MODEL_POLICIES["OSP"])]
        for model in EXECUTION_MODELS:
            result = grid[(workload_cls.name, MODEL_POLICIES[model])]
            rows.append(_breakdown_row(category, model, result,
                                       osp.total_time_ns))
    return OrderedDict(fig4=rows)


FIG4_DEF = register_experiment(ExperimentDef(
    name="fig4",
    title="Fig. 4 -- execution time normalized to OSP, with breakdown",
    description="Case study: OSP / ISP / IFP / naive IFP+ISP over an "
                "I/O-intensive, a compute-intensive and a mixed workload.",
    policies=tuple(MODEL_POLICIES.values()),
    workloads=tuple(cls.name for cls in CATEGORY_WORKLOADS.values()),
    build=per_platform(_sections),
), overwrite=True)
