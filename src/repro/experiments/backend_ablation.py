"""Backend-roster ablation: grow the platform via config, watch decisions.

The registry refactor's proof: the same cost function, offloader and
feature collector run unchanged while the platform's compute shape is
grown purely through :class:`~repro.core.platform.PlatformConfig` --

* ``default`` -- the paper's trio (one ISP backend, PuD-SSD, IFP);
* ``multicore-isp`` -- the ISP pool split into per-core backends
  ``isp[0..n)``, each with its own execution queue;
* ``cxl-pud`` -- an opt-in CXL-attached PuD tier with its own
  latency/energy/bandwidth point.

Since the experiment-API redesign this is no longer a hand-rolled loop:
the rosters are the registered *platform variants* of
:mod:`repro.experiments.platforms`, and the ablation is a platform-axis
sweep through the shared :func:`~repro.experiments.registry.run_experiment`
engine -- sharded, cached and bit-identical to every other harness.  For
every (workload, roster) unit the table reports total time and the
per-family decision mix, plus the fraction landing on the grown backends,
so the shift in the cost model's argmin is directly visible (the CXL tier
absorbs compute-heavy work once the in-SSD PuD queue backs up; per-core
ISP queues expose contention the pooled backend hid).

Registered as the ``backend_ablation`` experiment
(``python -m repro run backend_ablation``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.common import Resource
from repro.core.platform import PlatformConfig, backend_roster
from repro.experiments.platforms import (experiment_platform_config,
                                         platform_variant)
from repro.experiments.registry import (ExperimentContext, ExperimentDef,
                                        register_experiment)

#: Workloads whose operation mix exercises all three resource families.
ABLATION_WORKLOADS = ("LLM Training", "LlaMA2 Inference", "XOR Filter")

#: Platform variants the ablation compares (the first is the baseline).
ABLATION_PLATFORMS = ("default", "multicore-isp", "cxl-pud")


def ablation_rosters(base: Optional[PlatformConfig] = None
                     ) -> Dict[str, PlatformConfig]:
    """The platform shapes the ablation compares, keyed by variant name."""
    base = base or experiment_platform_config()
    return {name: platform_variant(name, base=base)
            for name in ABLATION_PLATFORMS}


def _sections(ctx: ExperimentContext):
    policy = ctx.definition.policies[0]
    # Normalize against the ``default`` roster when it is part of the run;
    # under a --platform override that excludes it, fall back to the first
    # swept variant (and label the column accordingly).
    baseline_name = ("default" if "default" in ctx.platform_names
                     else ctx.platform_names[0])
    speedup_column = f"speedup_vs_{baseline_name}"
    rows: List[Dict[str, object]] = []
    for workload in ctx.workloads:
        baseline_ns = ctx.grid[(workload.name, policy,
                                baseline_name)].total_time_ns
        for roster_name in ctx.platform_names:
            result = ctx.grid[(workload.name, policy, roster_name)]
            kinds = result.kind_fractions()
            fractions = result.ssd_resource_fractions()
            grown = sum(value for resource, value in fractions.items()
                        if resource not in (Resource.ISP, Resource.PUD,
                                            Resource.IFP))
            rows.append({
                "workload": workload.name,
                "roster": roster_name,
                "backends": len(backend_roster(
                    ctx.platforms[roster_name])),
                "time_ms": result.total_time_ns / 1e6,
                speedup_column: baseline_ns / result.total_time_ns,
                "isp": kinds.get(Resource.ISP, 0.0),
                "pud_ssd": kinds.get(Resource.PUD, 0.0),
                "ifp": kinds.get(Resource.IFP, 0.0),
                "grown_backends": grown,
            })
    return OrderedDict(ablation=rows)


ABLATION_DEF = register_experiment(ExperimentDef(
    name="backend_ablation",
    title="Backend-roster ablation -- config-grown platforms, one cost "
          "function",
    description="Conduit on the default / multicore-isp / cxl-pud platform "
                "variants: timing and per-family decision mix per roster.",
    policies=("Conduit",),
    workloads=ABLATION_WORKLOADS,
    default_platforms=ABLATION_PLATFORMS,
    build=_sections,
), overwrite=True)
