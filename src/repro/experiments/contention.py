"""Contention-feedback ablation: the cost model with its eyes open.

The ROADMAP's open modelling item: the per-instruction greedy argmin
ignores global link contention, so on the ``cxl-pud`` roster the
LLM-Training row shifts decisions onto the CXL tier yet *regresses*
end-to-end.  ``PlatformConfig.contention_feedback`` closes the loop with
live movement-overrun feedback (:mod:`repro.core.contention`); this
experiment is the demonstration: Conduit with feedback off and on across
the three platform shapes, with the host-only CPU baseline alongside.

Feedback on/off is itself a platform axis -- the ``*-feedback`` variants
of :mod:`repro.experiments.platforms` -- so the whole ablation is one
cached cross-product sweep: (workloads x {Conduit, CPU} x 6 variants).
Each table row pairs a base roster with its feedback twin and reports
both times, the feedback speedup, and the fraction of decisions landing
on registry-grown backends in each mode, so the decision shift and its
end-to-end consequence sit side by side.

Registered as the ``contention`` experiment
(``python -m repro run contention``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.common import Resource
from repro.core.metrics import ExecutionResult
from repro.experiments.registry import (ExperimentContext, ExperimentDef,
                                        Rows, register_experiment)

#: Workloads whose operation mix exercises all resource families (the
#: LLM-Training row is the one the ROADMAP documents regressing).
CONTENTION_WORKLOADS = ("LLM Training", "LlaMA2 Inference", "XOR Filter")

#: The feedback-off/on pairs swept by default: each base roster next to
#: its ``contention_feedback=True`` twin.
CONTENTION_PLATFORMS = ("default", "default-feedback",
                        "multicore-isp", "multicore-isp-feedback",
                        "cxl-pud", "cxl-pud-feedback")

#: The suffix pairing a feedback variant with its base roster.
FEEDBACK_SUFFIX = "-feedback"

#: Policy whose decisions the feedback corrects, and the host baseline.
CONTENTION_POLICY = "Conduit"
HOST_BASELINE = "CPU"


def _grown_fraction(result: ExecutionResult) -> float:
    """Fraction of decisions on registry-grown (non-trio) backends."""
    return sum(value
               for resource, value in result.ssd_resource_fractions().items()
               if resource not in (Resource.ISP, Resource.PUD, Resource.IFP))


def _paired_rosters(platform_names: Tuple[str, ...]
                    ) -> List[Tuple[str, Optional[str]]]:
    """(base, feedback-twin-or-None) pairs among the swept variants.

    Keeps the run usable under a ``--platform`` override: a base swept
    without its twin still produces a row (with the feedback columns
    empty), and a twin swept alone is reported as its own base.
    """
    names = list(platform_names)
    pairs: List[Tuple[str, Optional[str]]] = []
    for name in names:
        if name.endswith(FEEDBACK_SUFFIX):
            if name[:-len(FEEDBACK_SUFFIX)] in names:
                continue  # reported as its base's twin
            pairs.append((name, None))
        else:
            twin = name + FEEDBACK_SUFFIX
            pairs.append((name, twin if twin in names else None))
    return pairs


def _sections(ctx: ExperimentContext) -> "OrderedDict[str, List[Dict]]":
    rows: List[Dict[str, object]] = []
    for workload in ctx.workloads:
        for base, twin in _paired_rosters(ctx.platform_names):
            off = ctx.grid[(workload.name, CONTENTION_POLICY, base)]
            host = ctx.grid.get((workload.name, HOST_BASELINE, base))
            row: Dict[str, object] = {
                "workload": workload.name,
                "roster": base,
                "greedy_ms": off.total_time_ns / 1e6,
                "grown_greedy": _grown_fraction(off),
            }
            if twin is not None:
                on = ctx.grid[(workload.name, CONTENTION_POLICY, twin)]
                row["feedback_ms"] = on.total_time_ns / 1e6
                row["feedback_speedup"] = (off.total_time_ns /
                                           on.total_time_ns)
                row["grown_feedback"] = _grown_fraction(on)
            if host is not None:
                row["host_ms"] = host.total_time_ns / 1e6
            rows.append(row)
    return OrderedDict(contention=rows)


def _headline(ctx: ExperimentContext,
              sections: "OrderedDict[str, Rows]") -> List[str]:
    """The ROADMAP regression, quantified: LLM Training on cxl-pud."""
    lines: List[str] = []
    key_off = ("LLM Training", CONTENTION_POLICY, "cxl-pud")
    key_on = ("LLM Training", CONTENTION_POLICY, "cxl-pud-feedback")
    key_host = ("LLM Training", HOST_BASELINE, "cxl-pud")
    if key_off in ctx.grid and key_on in ctx.grid:
        off = ctx.grid[key_off].total_time_ns
        on = ctx.grid[key_on].total_time_ns
        closed = "closed" if on <= off else "NOT closed"
        line = (f"LLM Training on cxl-pud: {off / 1e6:.2f} ms greedy -> "
                f"{on / 1e6:.2f} ms with contention feedback "
                f"({off / on:.2f}x, regression {closed}")
        if key_host in ctx.grid:
            host = ctx.grid[key_host].total_time_ns
            beats = "beats" if on <= host else "still behind"
            line += f"; host-only {host / 1e6:.2f} ms, {beats} host"
        lines.append(line + ")")
    return lines


CONTENTION_DEF = register_experiment(ExperimentDef(
    name="contention",
    title="Contention-feedback ablation -- greedy vs link-aware cost model",
    description="Conduit with the contention-aware cost model off and on "
                "across the default / multicore-isp / cxl-pud rosters, "
                "next to the host-only baseline (the ROADMAP's LLM "
                "Training CXL regression, closed).",
    policies=(CONTENTION_POLICY, HOST_BASELINE),
    workloads=CONTENTION_WORKLOADS,
    default_platforms=CONTENTION_PLATFORMS,
    build=_sections,
    headline=_headline,
    paper_refs=("Section 4.5 prices movement from uncontended tables; the "
                "feedback extension keeps Eqn. 2's argmin honest under "
                "link contention.",),
))
