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
from typing import Dict, Optional, Tuple

from repro.core.metrics import ExecutionResult
from repro.experiments.registry import (ExperimentDef, per_platform,
                                        register_experiment, run_experiment)
from repro.experiments.report import format_table, nested_to_rows
from repro.experiments.runner import (FIG5_POLICIES, ExperimentConfig,
                                      default_sweep_cache_dir, speedup_table)

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


def run_motivation_with_results(config: Optional[ExperimentConfig] = None, *,
                                parallel: bool = True,
                                workers: Optional[int] = None,
                                cache_dir: Optional[str] = None
                                ) -> Tuple[Dict[str, Dict[str, float]],
                                           Dict[Tuple[str, str],
                                                ExecutionResult]]:
    """Run the Fig. 5 sweep; returns the speedup table and raw results."""
    result = run_experiment(FIG5_DEF, config, parallel=parallel,
                            workers=workers, cache_dir=cache_dir)
    grid = result.platform_grid("default")
    return speedup_table(grid, _TABLE_POLICIES), grid


def run_motivation(config: Optional[ExperimentConfig] = None, *,
                   parallel: bool = True, workers: Optional[int] = None,
                   cache_dir: Optional[str] = None
                   ) -> Dict[str, Dict[str, float]]:
    """Run the Fig. 5 sweep; returns {workload: {policy: speedup}}."""
    table, _ = run_motivation_with_results(config, parallel=parallel,
                                           workers=workers,
                                           cache_dir=cache_dir)
    return table


def main(config: Optional[ExperimentConfig] = None) -> str:
    table = run_motivation(config, cache_dir=default_sweep_cache_dir())
    text = format_table(nested_to_rows(table))
    print("Fig. 5 -- speedup over CPU (higher is better)")
    print(text)
    return text
