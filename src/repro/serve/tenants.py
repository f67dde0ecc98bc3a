"""Tenant specifications: who sends the fleet its traffic.

A tenant is one class of users with a workload *mix* (weighted draw over
:data:`~repro.workloads.WORKLOAD_REGISTRY` entries), an arrival process
and a share of the fleet's offered load.  The default population models
the three request classes a storage-compute fleet actually sees:

* ``interactive`` -- latency-sensitive inference traffic (LLaMA2
  Inference, jacobi-1d), Poisson arrivals, half the offered load;
* ``batch`` -- heavy training/stencil jobs arriving in bursts (LLM
  Training, heat-3d), MMPP arrivals;
* ``analytics`` -- scan-style filter/encryption queries (XOR Filter,
  AES), Poisson arrivals.

Mixes are validated against the workload registry at construction so a
typo fails at definition time, not deep inside a sweep.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

from repro.serve.arrivals import arrival_process
from repro.workloads import WORKLOAD_REGISTRY


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: name, workload mix, arrival process, load share."""

    name: str
    #: ``(workload registry name, positive weight)`` pairs.
    mix: Tuple[Tuple[str, float], ...]
    #: Registered arrival-process name (see :mod:`repro.serve.arrivals`).
    arrival: str = "poisson"
    #: Fraction of the fleet's offered load this tenant contributes.
    share: float = 1.0

    def __post_init__(self) -> None:
        if not self.mix:
            raise ValueError(f"tenant {self.name!r} has an empty mix")
        for workload, weight in self.mix:
            if workload not in WORKLOAD_REGISTRY:
                known = ", ".join(sorted(WORKLOAD_REGISTRY))
                raise ValueError(
                    f"tenant {self.name!r} mixes unknown workload "
                    f"{workload!r}; known: {known}")
            if not math.isfinite(weight):
                raise ValueError(
                    f"tenant {self.name!r} has non-finite weight "
                    f"{weight} for {workload!r}")
            if weight <= 0.0:
                raise ValueError(
                    f"tenant {self.name!r} has non-positive weight "
                    f"{weight} for {workload!r}")
        if not math.isfinite(self.share):
            raise ValueError(
                f"tenant {self.name!r} has non-finite share {self.share}")
        if self.share <= 0.0:
            raise ValueError(
                f"tenant {self.name!r} has non-positive share {self.share}")
        arrival_process(self.arrival)  # fail fast on unknown names

    def workloads(self) -> Tuple[str, ...]:
        """The workload names this tenant draws from, in mix order."""
        return tuple(workload for workload, _ in self.mix)

    def normalized_mix(self) -> Tuple[Tuple[str, float], ...]:
        """The mix with weights normalized to sum to one."""
        total = sum(weight for _, weight in self.mix)
        return tuple((workload, weight / total)
                     for workload, weight in self.mix)

    @cached_property
    def cumulative_mix(self) -> Tuple[Tuple[float, str], ...]:
        """``(running normalized weight, workload)`` pairs, in mix order.

        Built once per tenant, accumulating the normalized weights left
        to right; :meth:`sample_workload` compares its draw against it.
        """
        table = []
        acc = 0.0
        for workload, weight in self.normalized_mix():
            acc += weight
            table.append((acc, workload))
        return tuple(table)

    def sample_workload(self, rng: random.Random) -> str:
        """Draw one workload name from the mix (one ``rng`` call)."""
        u = rng.random()
        for acc, workload in self.cumulative_mix:
            if u < acc:
                return workload
        return self.mix[-1][0]  # float round-off: the draw hit 1.0


def validate_tenants(tenants: Sequence[TenantSpec]) -> Tuple[TenantSpec, ...]:
    """Check a tenant population is well-formed; returns it as a tuple.

    Names must be unique (they key the SLO tables) and shares must sum to
    roughly one -- the shares partition the offered load, so a population
    summing to 0.6 would silently serve 40% less traffic than reported.
    """
    population = tuple(tenants)
    if not population:
        raise ValueError("tenant population must not be empty")
    names = [tenant.name for tenant in population]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names in {names}")
    total_share = sum(tenant.share for tenant in population)
    if not abs(total_share - 1.0) <= 1e-6:  # also rejects a NaN sum
        raise ValueError(
            f"tenant shares must sum to 1.0 (they partition the offered "
            f"load), got {total_share}")
    return population


def fleet_workloads(tenants: Sequence[TenantSpec]) -> Tuple[str, ...]:
    """Every workload any tenant mixes, deduplicated in first-seen order."""
    seen: List[str] = []
    for tenant in tenants:
        for workload in tenant.workloads():
            if workload not in seen:
                seen.append(workload)
    return tuple(seen)


#: The default three-tenant population described in the module docstring.
DEFAULT_TENANTS: Tuple[TenantSpec, ...] = validate_tenants((
    TenantSpec(name="interactive",
               mix=(("LlaMA2 Inference", 3.0), ("jacobi-1d", 1.0)),
               arrival="poisson", share=0.5),
    TenantSpec(name="batch",
               mix=(("LLM Training", 1.0), ("heat-3d", 1.0)),
               arrival="mmpp", share=0.3),
    TenantSpec(name="analytics",
               mix=(("XOR Filter", 2.0), ("AES", 1.0)),
               arrival="poisson", share=0.2),
))
