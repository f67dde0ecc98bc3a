"""Fleet-scale multi-tenant serving simulation (the ``serve`` experiment).

An open-loop serving layer on top of the closed-loop platform/experiment
stack: arrival processes (:mod:`repro.serve.arrivals`), tenant workload
mixes (:mod:`repro.serve.tenants`), a contention-aware fleet scheduler
over N device instances (:mod:`repro.serve.fleet`), per-tenant SLO
accounting (:mod:`repro.serve.slo`) and the registered ``serve``
experiment definition (:mod:`repro.serve.experiment`).
"""

from repro.serve.arrivals import (ARRIVAL_REGISTRY, ArrivalProcess,
                                  MMPPArrivals, PoissonArrivals,
                                  arrival_process,
                                  register_arrival_process)
from repro.serve.experiment import (DEFAULT_FLEET, REFERENCE_LOAD,
                                    SERVE_DEF, SERVE_MODES,
                                    calibrate_service_models, run_serve,
                                    simulate_modes)
from repro.serve.fleet import (FleetConfig, FleetDevice, FleetOutcome,
                               FleetSimulator, Request, ServiceModel,
                               TenantOutcome, fleet_capacity_rps,
                               generate_requests, mean_service_ns)
from repro.serve.slo import (TenantSLO, fleet_slo_row, jain_fairness,
                             latency_percentiles_ms, tenant_slos)
from repro.serve.tenants import (DEFAULT_TENANTS, TenantSpec,
                                 fleet_workloads, validate_tenants)

__all__ = [
    "ARRIVAL_REGISTRY", "ArrivalProcess", "MMPPArrivals",
    "PoissonArrivals", "arrival_process", "register_arrival_process",
    "DEFAULT_FLEET", "REFERENCE_LOAD", "SERVE_DEF", "SERVE_MODES",
    "calibrate_service_models", "run_serve", "simulate_modes",
    "FleetConfig", "FleetDevice", "FleetOutcome", "FleetSimulator",
    "Request", "ServiceModel", "TenantOutcome", "fleet_capacity_rps",
    "generate_requests", "mean_service_ns",
    "TenantSLO", "fleet_slo_row", "jain_fairness",
    "latency_percentiles_ms", "tenant_slos",
    "DEFAULT_TENANTS", "TenantSpec", "fleet_workloads", "validate_tenants",
]
