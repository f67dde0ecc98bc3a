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
  fleet's capacity, so both fleets face bit-identical request streams at
  every rung and the comparison is paired, not sampled.

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
    the same absolute requests/sec (and, by seed construction, the same
    request stream) at every rung.
    """
    population = validate_tenants(tenants)
    workloads = fleet_workloads(population)
    host_models = calibrate_service_models(grid, SERVE_MODES[0][1],
                                           workloads)
    capacity = fleet_capacity_rps(population, host_models, fleet)
    simulator = FleetSimulator(fleet)
    outcomes: "OrderedDict[str, Dict[float, FleetOutcome]]" = OrderedDict()
    for mode, policy in SERVE_MODES:
        models = calibrate_service_models(grid, policy, workloads)
        outcomes[mode] = {
            load: simulator.simulate(population, models, load * capacity)
            for load in fleet.load_points}
    return outcomes


def _curve_rows(outcomes: "OrderedDict[str, Dict[float, FleetOutcome]]"
                ) -> Rows:
    rows: Rows = []
    for mode, by_load in outcomes.items():
        for load, outcome in by_load.items():
            row: Dict[str, object] = {"fleet": mode, "load": load}
            row.update(fleet_slo_row(outcome))
            rows.append(row)
    return rows


def _tenant_rows(outcomes: "OrderedDict[str, Dict[float, FleetOutcome]]",
                 reference_load: float) -> Rows:
    rows: Rows = []
    for mode, by_load in outcomes.items():
        for slo in tenant_slos(by_load[reference_load]):
            rows.append({
                "fleet": mode, "tenant": slo.tenant,
                "arrival": slo.arrival, "demand_rps": slo.demand_rps,
                "achieved_rps": slo.achieved_rps, "p50_ms": slo.p50_ms,
                "p99_ms": slo.p99_ms, "p999_ms": slo.p999_ms,
                "rejected": slo.rejected,
            })
    return rows


def _reference_load(fleet: FleetConfig) -> float:
    """The reporting rung: ``REFERENCE_LOAD`` if swept, else the highest
    load point not exceeding it (custom ladders stay reportable)."""
    if REFERENCE_LOAD in fleet.load_points:
        return REFERENCE_LOAD
    below = [load for load in fleet.load_points if load <= REFERENCE_LOAD]
    return max(below) if below else min(fleet.load_points)


def _build(ctx: ExperimentContext, fleet: FleetConfig,
           tenants: Sequence[TenantSpec]) -> "OrderedDict[str, Rows]":
    sections: "OrderedDict[str, Rows]" = OrderedDict()
    multi = len(ctx.platform_names) > 1
    for name in ctx.platform_names:
        outcomes = simulate_modes(ctx.platform_grid(name), fleet, tenants)
        prefix = f"{name}/" if multi else ""
        sections[f"{prefix}serve"] = _curve_rows(outcomes)
        sections[f"{prefix}serve-tenants"] = _tenant_rows(
            outcomes, _reference_load(fleet))
    return sections


def _headline(ctx: ExperimentContext, fleet: FleetConfig,
              tenants: Sequence[TenantSpec]) -> List[str]:
    lines: List[str] = []
    reference = _reference_load(fleet)
    for name in ctx.platform_names:
        # Deterministic recomputation, not state smuggled from the build:
        # the fleet level is cheap (tens of thousands of events) next to
        # the calibration sweep, and purity keeps build/headline
        # independently testable.
        outcomes = simulate_modes(ctx.platform_grid(name), fleet, tenants)
        host = fleet_slo_row(outcomes["host-only"][reference])
        offl = fleet_slo_row(outcomes["offloaded"][reference])
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
        headline=lambda ctx: _headline(ctx, fleet, tenants),
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
