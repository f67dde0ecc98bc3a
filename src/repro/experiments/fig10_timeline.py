"""Fig. 10 -- instruction-to-resource mapping over time (LLaMA2 Inference).

Reproduces the workload/computation-resource interaction analysis of
Section 6.5: for BW-Offloading, DM-Offloading and Conduit, the harness
records which resource executed each of the first N vectorized instructions
of LLaMA2 Inference along with its operation type, and summarizes the
resource chosen per execution phase.  The paper's observations: BW switches
resources frequently, DM pins addition and multiplication phases to flash,
and Conduit keeps locality-friendly additions in flash while running costly
multiplications in DRAM and control-intensive work on the controller cores.

Registered as the ``fig10`` experiment (``python -m repro run fig10``).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Dict, List

from repro.experiments.registry import (ExperimentDef, per_platform,
                                        register_experiment)
from repro.workloads import LlamaInferenceWorkload

TIMELINE_POLICIES = ("BW-Offloading", "DM-Offloading", "Conduit")
#: Number of instructions shown by the paper's figure.
TIMELINE_INSTRUCTIONS = 12_000


def _sections(ctx, platform_name, grid):
    timelines = {policy: grid[(LlamaInferenceWorkload.name,
                               policy)].timeline(limit=TIMELINE_INSTRUCTIONS)
                 for policy in TIMELINE_POLICIES}
    return OrderedDict(fig10=phase_summary(timelines))


FIG10_DEF = register_experiment(ExperimentDef(
    name="fig10",
    title="Fig. 10 -- instruction-to-resource mapping phases (LLaMA2)",
    description="Dominant resource / operation per execution phase for "
                "BW-Offloading, DM-Offloading and Conduit.",
    policies=TIMELINE_POLICIES,
    workloads=(LlamaInferenceWorkload.name,),
    build=per_platform(_sections),
), overwrite=True)


def phase_summary(timelines: Dict[str, List[Dict[str, object]]],
                  phases: int = 6) -> List[Dict[str, object]]:
    """Summarize the dominant resource per execution phase (figure proxy)."""
    rows: List[Dict[str, object]] = []
    for policy, timeline in timelines.items():
        if not timeline:
            continue
        phase_length = max(1, len(timeline) // phases)
        for phase in range(phases):
            window = timeline[phase * phase_length:(phase + 1) * phase_length]
            if not window:
                continue
            resources = Counter(entry["resource"] for entry in window)
            operations = Counter(entry["op"] for entry in window)
            rows.append({
                "policy": policy,
                "phase": phase,
                "instructions": len(window),
                "dominant_resource": resources.most_common(1)[0][0],
                "dominant_op": operations.most_common(1)[0][0],
                "resource_switches": sum(
                    1 for a, b in zip(window, window[1:])
                    if a["resource"] != b["resource"]),
            })
    return rows
