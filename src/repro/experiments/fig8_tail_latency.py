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
from typing import Dict, List, Optional

from repro.experiments.registry import (ExperimentDef, per_platform,
                                        register_experiment, run_experiment)
from repro.experiments.report import format_table
from repro.experiments.runner import (ExperimentConfig,
                                      default_sweep_cache_dir)
from repro.workloads import Jacobi1DWorkload, LlamaInferenceWorkload

TAIL_POLICIES = ("Ideal", "Conduit", "BW-Offloading", "DM-Offloading")
TAIL_WORKLOADS = (LlamaInferenceWorkload, Jacobi1DWorkload)


def _rows_from_grid(grid) -> List[Dict[str, object]]:
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
    return rows


def _sections(ctx, platform_name, grid):
    return OrderedDict(fig8=_rows_from_grid(grid))


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


def run_tail_latency(config: Optional[ExperimentConfig] = None, *,
                     parallel: bool = True, workers: Optional[int] = None,
                     cache_dir: Optional[str] = None
                     ) -> List[Dict[str, object]]:
    """Return one row per (workload, policy) with p99 / p99.99 latencies."""
    result = run_experiment(FIG8_DEF, config, parallel=parallel,
                            workers=workers, cache_dir=cache_dir)
    return _rows_from_grid(result.platform_grid("default"))


def main(config: Optional[ExperimentConfig] = None) -> str:
    rows = run_tail_latency(config, cache_dir=default_sweep_cache_dir())
    text = format_table(rows)
    print("Fig. 8 -- per-instruction tail latencies (lower is better)")
    print(text)
    return text
