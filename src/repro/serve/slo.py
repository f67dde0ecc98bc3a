"""Per-tenant SLO accounting: the fleet-level generalization of Fig. 8.

Fig. 8 reports one workload's per-instruction p99/p99.99 under one
policy; a multi-tenant fleet needs the same machinery per *tenant* and
per *request*: latency percentiles (p50/p99/p999), achieved vs. demanded
throughput, rejection counts, and a fairness index over how the fleet's
capacity was split.  Jain's index is the standard choice: 1.0 means every
tenant achieved the same fraction of its demand, 1/n means one tenant
took everything.

The statistics come from :mod:`repro.stats`, which reproduces numpy's
percentile and pairwise sum bit for bit, so the fleet never imports numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import stats
from repro.serve.fleet import FleetOutcome


def latency_percentiles_ms(latencies_ns: Sequence[float]
                           ) -> Tuple[float, float, float]:
    """p50/p99/p999 latency in milliseconds (zeros for an empty sample).

    One sort serves the three percentiles.
    """
    if not latencies_ns:
        return 0.0, 0.0, 0.0
    p50, p99, p999 = stats.percentiles(latencies_ns, (50.0, 99.0, 99.9))
    return p50 / 1e6, p99 / 1e6, p999 / 1e6


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index of ``values`` (1.0 = perfectly fair).

    Defined as ``(sum x)^2 / (n * sum x^2)``; an all-zero sample is
    vacuously fair (nobody got anything, equally).
    """
    values = [float(value) for value in values]
    if not values:
        return 1.0
    square_sum = stats.pairwise_sum([value * value for value in values])
    if square_sum == 0.0:
        return 1.0
    total = stats.pairwise_sum(values)
    return total * total / (len(values) * square_sum)


@dataclass(frozen=True)
class TenantSLO:
    """One tenant's SLO summary at one load level."""

    tenant: str
    arrival: str
    demand_rps: float
    achieved_rps: float
    p50_ms: float
    p99_ms: float
    p999_ms: float
    mean_ms: float
    admitted: int
    rejected: int

    @property
    def satisfaction(self) -> float:
        """Achieved / demanded throughput (1.0 = nothing shed)."""
        return self.achieved_rps / self.demand_rps if self.demand_rps else 1.0


def tenant_slos(outcome: FleetOutcome) -> List[TenantSLO]:
    """Per-tenant SLO summaries of one simulated load level."""
    slos: List[TenantSLO] = []
    for tenant in outcome.tenants.values():
        latencies = tenant.latencies_ns
        mean_ms = stats.mean(latencies) / 1e6 if latencies else 0.0
        p50_ms, p99_ms, p999_ms = latency_percentiles_ms(latencies)
        slos.append(TenantSLO(
            tenant=tenant.tenant,
            arrival=tenant.arrival,
            demand_rps=tenant.offered / outcome.horizon_s,
            achieved_rps=tenant.admitted / outcome.horizon_s,
            p50_ms=p50_ms,
            p99_ms=p99_ms,
            p999_ms=p999_ms,
            mean_ms=mean_ms,
            admitted=tenant.admitted,
            rejected=tenant.rejected))
    return slos


def fleet_slo_row(outcome: FleetOutcome,
                  slos: Optional[Sequence[TenantSLO]] = None
                  ) -> Dict[str, float]:
    """Fleet-wide SLO numbers of one load level (one table row's worth).

    ``slos`` is ``tenant_slos(outcome)`` when the caller already has it
    (the fairness index needs it); it is computed here otherwise.
    """
    latencies = outcome.all_latencies_ns()
    offered = outcome.admitted + outcome.rejected
    if slos is None:
        slos = tenant_slos(outcome)
    p50_ms, p99_ms, p999_ms = latency_percentiles_ms(latencies)
    return {
        "offered_rps": offered / outcome.horizon_s,
        "achieved_rps": outcome.admitted / outcome.horizon_s,
        "p50_ms": p50_ms,
        "p99_ms": p99_ms,
        "p999_ms": p999_ms,
        "rejected_pct": 100.0 * outcome.rejected / offered if offered else 0.0,
        "fairness": jain_fairness([slo.satisfaction for slo in slos]),
    }
