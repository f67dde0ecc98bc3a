"""The ``serve`` experiment: load vs. tail latency, host-only vs. offloaded.

This is the first result no figure in the paper has: a *fleet* of SSD
platforms serving an open-loop, multi-tenant request stream, reported as
a requests/sec-vs-p99 curve for a host-only fleet (every request served
by the OSP CPU baseline) against an offloaded fleet (every request served
under the Conduit policy).

The experiment composes the existing machinery end to end:

* the **calibration sweep** is an ordinary (workloads x {CPU, Conduit} x
  platform-variant) cross-product through
  :func:`~repro.experiments.registry.run_experiment` -- sharded over the
  process pool and cached in the shared on-disk sweep cache like every
  other experiment;
* each calibrated :class:`~repro.core.metrics.ExecutionResult` becomes a
  :class:`~repro.serve.fleet.ServiceModel`;
* the :class:`~repro.serve.fleet.FleetSimulator` serves the default
  tenant population (:data:`~repro.serve.tenants.DEFAULT_TENANTS`) at a
  ladder of offered loads expressed as fractions of the *host-only*
  fleet's capacity.  Each rung's request stream is generated once and
  served to both fleets, so the comparison is paired, not sampled, and
  each (fleet, rung) pair is simulated exactly once per run: the headline
  quotes the reference rung's rows of the built ``serve`` table.

Everything downstream of the calibration grid is a deterministic pure
function of (grid, fleet config, tenants, seed): two runs with the same
seed -- serial or sharded -- emit bit-identical tables.

Registered as the ``serve`` experiment
(``python -m repro run serve [--platform VARIANT] [--scale S]``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import ExecutionResult
from repro.experiments.registry import (ExperimentContext, ExperimentDef,
                                        ExperimentResult, Rows,
                                        register_experiment, run_experiment)
from repro.experiments.runner import ExperimentConfig
from repro.serve import fleet as serve_fleet
from repro.serve.fleet import (FleetConfig, FleetOutcome, FleetSimulator,
                               ServiceModel, fleet_capacity_rps)
from repro.serve.slo import fleet_slo_row, tenant_slos
from repro.serve.tenants import (DEFAULT_TENANTS, TenantSpec,
                                 fleet_workloads, validate_tenants)

#: The two fleets of the headline comparison: every request of the
#: host-only fleet runs the OSP CPU baseline, every request of the
#: offloaded fleet runs under the Conduit policy.
SERVE_MODES: Tuple[Tuple[str, str], ...] = (("host-only", "CPU"),
                                            ("offloaded", "Conduit"))

#: The load rung (fraction of host-only capacity) the per-tenant section
#: and the headline report; must be one of ``FleetConfig.load_points``.
REFERENCE_LOAD = 0.85

#: Fleet shape used when the caller does not supply one.
DEFAULT_FLEET = FleetConfig()


def calibrate_service_models(
        grid: Dict[Tuple[str, str], ExecutionResult], policy: str,
        workloads: Sequence[str]) -> Dict[str, ServiceModel]:
    """Service models for ``workloads`` from one policy's grid column."""
    return {workload: ServiceModel.from_result(grid[(workload, policy)])
            for workload in workloads}


def simulate_modes(grid: Dict[Tuple[str, str], ExecutionResult],
                   fleet: FleetConfig, tenants: Sequence[TenantSpec]
                   ) -> "OrderedDict[str, Dict[float, FleetOutcome]]":
    """Run every (mode, load point) fleet simulation off one grid slice.

    The offered-rate ladder is shared: each load point is that fraction
    of the *host-only* fleet's mean-service capacity, so both modes see
    the same absolute requests/sec and, by seed construction, the same
    request stream at every rung.  That stream is generated once per rung
    and served to every mode; only one rung's stream is alive at a time.
    """
    population = validate_tenants(tenants)
    workloads = fleet_workloads(population)
    models = {mode: calibrate_service_models(grid, policy, workloads)
              for mode, policy in SERVE_MODES}
    capacity = fleet_capacity_rps(population, models[SERVE_MODES[0][0]],
                                  fleet)
    simulator = FleetSimulator(fleet)
    outcomes: "OrderedDict[str, Dict[float, FleetOutcome]]" = OrderedDict(
        (mode, {}) for mode, _ in SERVE_MODES)
    for load in fleet.load_points:
        offered_rps = load * capacity
        # Looked up on the module so a wrapper installed there sees it.
        requests = serve_fleet.generate_requests(population, offered_rps,
                                                 fleet)
        for mode, by_load in outcomes.items():
            by_load[load] = simulator.simulate(population, models[mode],
                                               offered_rps, requests)
    return outcomes


def _reference_load(fleet: FleetConfig) -> float:
    """The reporting rung: ``REFERENCE_LOAD`` if swept, else the highest
    load point not exceeding it (custom ladders stay reportable)."""
    if REFERENCE_LOAD in fleet.load_points:
        return REFERENCE_LOAD
    below = [load for load in fleet.load_points if load <= REFERENCE_LOAD]
    return max(below) if below else min(fleet.load_points)


def _section_prefix(ctx: ExperimentContext, name: str) -> str:
    return f"{name}/" if len(ctx.platform_names) > 1 else ""


def _build(ctx: ExperimentContext, fleet: FleetConfig,
           tenants: Sequence[TenantSpec]) -> "OrderedDict[str, Rows]":
    """The load curve of every fleet, plus per-tenant SLOs at the
    reference rung, for each platform variant."""
    sections: "OrderedDict[str, Rows]" = OrderedDict()
    reference = _reference_load(fleet)
    for name in ctx.platform_names:
        curve: Rows = []
        per_tenant: Rows = []
        outcomes = simulate_modes(ctx.platform_grid(name), fleet, tenants)
        for mode, by_load in outcomes.items():
            for load, outcome in by_load.items():
                slos = tenant_slos(outcome)
                row: Dict[str, object] = {"fleet": mode, "load": load}
                row.update(fleet_slo_row(outcome, slos))
                curve.append(row)
                if load != reference:
                    continue
                for slo in slos:
                    per_tenant.append({
                        "fleet": mode, "tenant": slo.tenant,
                        "arrival": slo.arrival, "demand_rps": slo.demand_rps,
                        "achieved_rps": slo.achieved_rps,
                        "p50_ms": slo.p50_ms, "p99_ms": slo.p99_ms,
                        "p999_ms": slo.p999_ms, "rejected": slo.rejected,
                    })
        prefix = _section_prefix(ctx, name)
        sections[f"{prefix}serve"] = curve
        sections[f"{prefix}serve-tenants"] = per_tenant
    return sections


def _headline(ctx: ExperimentContext, sections: "OrderedDict[str, Rows]",
              fleet: FleetConfig) -> List[str]:
    """One line per variant, quoting the built table's reference rung."""
    lines: List[str] = []
    reference = _reference_load(fleet)
    for name in ctx.platform_names:
        rows = {row["fleet"]: row
                for row in sections[f"{_section_prefix(ctx, name)}serve"]
                if row["load"] == reference}
        host, offl = rows["host-only"], rows["offloaded"]
        ratio = (host["p99_ms"] / offl["p99_ms"]
                 if offl["p99_ms"] > 0 else float("inf"))
        lines.append(
            f"[{name}] at {reference:.2f}x host-only capacity "
            f"({host['offered_rps']:.1f} rps offered, fleet of "
            f"{fleet.devices}): p99 {host['p99_ms']:.2f} ms host-only vs "
            f"{offl['p99_ms']:.2f} ms offloaded ({ratio:.2f}x), shed "
            f"{host['rejected_pct']:.1f}% vs {offl['rejected_pct']:.1f}%")
    return lines


def _serve_definition(fleet: FleetConfig, tenants: Sequence[TenantSpec],
                      workloads: Optional[Tuple[str, ...]]) -> ExperimentDef:
    return ExperimentDef(
        name="serve",
        title="Serve -- fleet-scale multi-tenant open-loop serving "
              "(load vs. tail latency)",
        description="An open-loop tenant mix (Poisson + bursty MMPP "
                    "arrivals) over a fleet of device instances with "
                    "contention-aware admission + placement: offered load "
                    "vs. p50/p99/p999 and per-tenant SLOs, host-only vs. "
                    "offloaded fleets.",
        policies=tuple(policy for _, policy in SERVE_MODES),
        workloads=workloads,
        build=lambda ctx: _build(ctx, fleet, tenants),
        headline=lambda ctx, sections: _headline(ctx, sections, fleet),
        paper_refs=("No paper counterpart: generalizes Fig. 8's tail "
                    "machinery to per-tenant fleet SLOs under open-loop "
                    "load.",),
    )


#: The registered default: the three-tenant population over all six
#: workloads, the default fleet shape, seeded RNG.
SERVE_DEF = register_experiment(
    _serve_definition(DEFAULT_FLEET, DEFAULT_TENANTS, workloads=None),
    overwrite=True)


def run_serve(config: Optional[ExperimentConfig] = None, *,
              fleet: Optional[FleetConfig] = None,
              tenants: Optional[Sequence[TenantSpec]] = None,
              platforms: Optional[Sequence[str]] = None,
              parallel: bool = True, workers: Optional[int] = None,
              cache_dir: Optional[str] = None) -> ExperimentResult:
    """Run the serve experiment, optionally with a custom fleet/tenants.

    A custom population narrows the calibration sweep to exactly the
    workloads its mixes reference; the default population covers all six
    registered workloads.  ``fleet.seed`` fixes every random draw, so two
    calls with equal arguments return bit-identical results regardless of
    ``parallel`` / ``workers`` (the calibration grid itself is
    serial==parallel bit-identical by the sweep engine's contract).
    """
    if fleet is None and tenants is None:
        definition = SERVE_DEF
    else:
        population = validate_tenants(tenants if tenants is not None
                                      else DEFAULT_TENANTS)
        definition = _serve_definition(
            fleet if fleet is not None else DEFAULT_FLEET, population,
            workloads=fleet_workloads(population))
    return run_experiment(definition, config, platforms=platforms,
                          parallel=parallel, workers=workers,
                          cache_dir=cache_dir)
