"""Fig. 7 -- main performance (a) and energy (b) results.

Runs the full policy set of the paper's evaluation -- CPU, GPU, ISP,
PuD-SSD, Flash-Cosmos, Ares-Flash, BW-Offloading, DM-Offloading, Conduit and
Ideal -- over the six workloads and reports:

* Fig. 7(a): speedup over CPU per workload plus the geometric mean
  (the paper reports Conduit at 4.2x CPU, 1.8x DM-Offloading, 62% of Ideal);
* Fig. 7(b): energy normalized to CPU, split into data movement and
  computation (Conduit reduces energy by 46.8% versus DM-Offloading).

Registered as the ``fig7`` experiment (``python -m repro run fig7``,
optionally with ``--platform`` variants).  :func:`fig7_results_from_grid`
turns a run's grid back into both panels for callers that need more than
the rendered sections.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.metrics import ExecutionResult
from repro.experiments.registry import (ExperimentContext, ExperimentDef,
                                        Rows, per_platform,
                                        register_experiment)
from repro.experiments.report import nested_to_rows
from repro.experiments.runner import (FIG7_POLICIES, energy_table,
                                      speedup_table)


@dataclass
class Fig7Results:
    """Both panels of Fig. 7 plus the raw execution results."""

    speedups: Dict[str, Dict[str, float]]
    energy: Dict[str, Dict[str, Dict[str, float]]]
    raw: Dict[Tuple[str, str], ExecutionResult]

    def conduit_vs(self, policy: str) -> float:
        """Geometric-mean speedup of Conduit over another policy.

        Raises :class:`ValueError` naming the policy whose GMEAN is
        missing or non-positive (a ratio against it is undefined).
        """
        gmean = self.speedups.get("GMEAN", {})
        for name in ("Conduit", policy):
            if not gmean.get(name, 0.0) > 0:
                raise ValueError(
                    f"Fig. 7 has no positive GMEAN speedup for policy "
                    f"{name!r}; cannot compare Conduit against {policy!r}")
        return gmean["Conduit"] / gmean[policy]

    def conduit_energy_reduction_vs(self, policy: str) -> float:
        """Average energy reduction of Conduit versus another policy.

        Averaged over the workloads that ran both policies.  Raises
        :class:`ValueError` naming the workload with a non-positive
        energy, or the policy when no workload ran both.
        """
        reductions = []
        for workload, row in self.energy.items():
            if policy not in row or "Conduit" not in row:
                continue
            other = row[policy]["total"]
            if not other > 0:
                raise ValueError(
                    f"policy {policy!r} reported non-positive energy "
                    f"{other!r} on workload {workload!r}")
            reductions.append(1.0 - row["Conduit"]["total"] / other)
        if not reductions:
            raise ValueError(
                f"no Fig. 7 workload ran both Conduit and {policy!r}")
        return sum(reductions) / len(reductions)


def fig7_results_from_grid(grid: Dict[Tuple[str, str], ExecutionResult]
                           ) -> Fig7Results:
    """Assemble both Fig. 7 panels from one (workload, policy) grid."""
    policies = [policy for policy in FIG7_POLICIES if policy != "CPU"]
    return Fig7Results(
        speedups=speedup_table(grid, policies),
        energy=energy_table(grid, FIG7_POLICIES),
        raw=grid,
    )


def _energy_rows(energy: Dict[str, Dict[str, Dict[str, float]]]
                 ) -> List[Dict[str, object]]:
    return [{"workload": workload, "policy": policy, **parts}
            for workload, row in energy.items()
            for policy, parts in row.items()]


def _sections(ctx: ExperimentContext, platform_name: str, grid):
    results = fig7_results_from_grid(grid)
    return OrderedDict(
        fig7a=nested_to_rows(results.speedups),
        fig7b=_energy_rows(results.energy),
    )


def _headline(ctx: ExperimentContext,
              sections: "OrderedDict[str, Rows]") -> List[str]:
    lines = []
    for name in ctx.platform_names:
        results = fig7_results_from_grid(ctx.platform_grid(name))
        prefix = f"[{name}] " if len(ctx.platform_names) > 1 else ""
        lines.append(
            f"{prefix}Conduit vs DM-Offloading speedup: "
            f"{results.conduit_vs('DM-Offloading'):.2f}x (paper: 1.8x); "
            "energy reduction: "
            f"{100 * results.conduit_energy_reduction_vs('DM-Offloading'):.1f}%"
            " (paper: 46.8%)")
    return lines


FIG7_DEF = register_experiment(ExperimentDef(
    name="fig7",
    title="Fig. 7 -- speedup over CPU (a) and normalized energy (b)",
    description="Full policy set over the six workloads: the paper's "
                "headline performance and energy comparison.",
    policies=FIG7_POLICIES,
    build=per_platform(_sections),
    headline=_headline,
    paper_refs=("Conduit: 4.2x CPU, 1.8x DM-Offloading, 62% of Ideal",
                "energy: -46.8% vs DM-Offloading"),
), overwrite=True)
