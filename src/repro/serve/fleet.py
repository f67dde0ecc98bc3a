"""The fleet: N device instances, an admission + placement scheduler.

The closed-loop experiments simulate one :class:`~repro.core.platform.
SSDPlatform` cycle-approximately; a fleet serving millions of users cannot
afford a full platform simulation per request.  The serve layer therefore
splits the problem the way datacenter simulators (and the paper's own
cost model) do:

* **Calibration** -- each (workload, policy, platform) unit runs *once*
  through the existing sweep engine (and its on-disk cache); the measured
  :class:`~repro.core.metrics.ExecutionResult` becomes that request
  class's :class:`ServiceModel`: the base service time is the measured
  end-to-end run time, and the measured per-instruction p99/mean ratio
  parameterizes a heavy-tail service spike, so a workload whose
  instruction latencies are tail-heavy inside one device is also
  tail-heavy at the fleet level.
* **Fleet simulation** -- an open-loop discrete-event loop over the
  merged tenant arrival streams.  Each of the ``devices`` fleet members
  serves admitted requests FCFS (one platform executes one program at a
  time, exactly like every closed-loop run in this repository), and owns
  a :class:`~repro.core.contention.LinkContentionMonitor` -- the PR 5
  congestion machinery reused one level up: every completed request
  reports (estimated uncontended service, observed wait + service) under
  its workload's path, so a device's monitor accumulates exactly the
  overrun signal the offloader's monitor accumulates for operand paths.

The **scheduler** reads those monitors as its congestion signal: a
request is placed on the device minimizing ``predicted wait + estimated
service x monitor.overrun(workload)`` (absolute overrun, not the
relative form the intra-device cost model uses -- across devices there is
no shared source leg to cancel, the *absolute* queueing history is the
signal).  **Admission** rejects a request whose predicted wait exceeds
``admission_wait_factor`` mean service times: an overloaded open-loop
fleet must shed load or its queues (and every latency percentile) grow
without bound.

Determinism: all randomness flows from per-tenant
``random.Random(f"{seed}/{tenant}")`` streams consumed at *generation*
time (workload draw, service jitter, tail flag), so the request stream is
a pure function of (tenants, offered rate, config) and the simulation a
pure function of (stream, service models, config).  The stream does not
depend on the service models, so :func:`generate_requests` runs once per
load level and :meth:`FleetSimulator.simulate` takes the stream as an
argument: fleets compared at one level are served the very same
requests, which is what makes the host-only vs. offloaded comparison
paired rather than merely sampled, and costs one generation, not one per
fleet.  The dispatch loop allocates nothing per request beyond the
request itself: placement is a plain loop over the devices, and each
tenant's cumulative mix table is built once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.common import SimulationError
from repro.core.contention import LinkContentionMonitor
from repro.core.metrics import ExecutionResult
from repro.serve.arrivals import arrival_process
from repro.serve.tenants import TenantSpec, validate_tenants


@dataclass(frozen=True)
class ServiceModel:
    """Calibrated per-request service behaviour of one workload class."""

    #: Uncontended end-to-end service time of one request (ns); the
    #: calibrated run's total time.
    base_ns: float
    #: Heavy-tail spike multiplier (>= 1): the calibrated run's
    #: per-instruction p99 / mean latency ratio.  A tail-flagged request
    #: takes ``base_ns * jitter * tail_ratio``.
    tail_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.base_ns <= 0.0:
            raise SimulationError(
                f"service base_ns must be positive, got {self.base_ns}")
        if self.tail_ratio < 1.0:
            raise SimulationError(
                f"service tail_ratio must be >= 1, got {self.tail_ratio}")

    @classmethod
    def from_result(cls, result: ExecutionResult) -> "ServiceModel":
        """Calibrate from one closed-loop :class:`ExecutionResult`."""
        mean = result.mean_latency_ns()
        ratio = (result.p99_latency_ns / mean) if mean > 0 else 1.0
        return cls(base_ns=result.total_time_ns,
                   tail_ratio=max(1.0, ratio))

    def service_ns(self, jitter: float, tail: bool) -> float:
        """Service time of one request given its pre-drawn randomness."""
        ns = self.base_ns * jitter
        return ns * self.tail_ratio if tail else ns


@dataclass(frozen=True)
class FleetConfig:
    """Shape and budget of one fleet simulation."""

    #: Number of device instances behind the scheduler.
    devices: int = 4
    #: RNG seed fixing every random draw of the simulation.
    seed: int = 2026
    #: Requests generated per load level (the horizon follows from the
    #: offered rate: ``horizon_s = requests / offered_rps``).
    requests: int = 800
    #: Offered load levels as fractions of the *host-only* fleet's mean
    #: service capacity; values past 1.0 probe saturation behaviour.
    load_points: Tuple[float, ...] = (0.3, 0.5, 0.7, 0.85, 0.95, 1.1)
    #: Reject a request whose predicted queueing wait exceeds this many
    #: fleet-mean service times (open-loop overload must shed, not queue
    #: unboundedly).
    admission_wait_factor: float = 25.0
    #: Probability a request is a tail request (drawn at generation time,
    #: so the flag is shared across fleet modes).
    tail_probability: float = 0.02
    #: Service-time jitter band: a request's jitter is drawn uniformly
    #: from ``[1 - jitter, 1 + jitter]``.
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise SimulationError(
                f"fleet needs >= 1 device, got {self.devices}")
        if self.requests < 1:
            raise SimulationError(
                f"fleet needs >= 1 request per level, got {self.requests}")
        if not self.load_points:
            raise SimulationError("fleet needs >= 1 load point")
        if not all(math.isfinite(load) and load > 0.0
                   for load in self.load_points):
            raise SimulationError(
                f"load_points must be finite and positive, got "
                f"{self.load_points}")
        if len(set(self.load_points)) != len(self.load_points):
            # Each rung keys one row of the per-load tables; a repeat
            # would silently collapse into a single row.
            raise SimulationError(
                f"load_points must not repeat, got {self.load_points}")
        if not 0.0 <= self.tail_probability <= 1.0:
            raise SimulationError(
                f"tail probability must be in [0, 1], got "
                f"{self.tail_probability}")
        if not 0.0 <= self.jitter < 1.0:
            raise SimulationError(
                f"jitter must be in [0, 1), got {self.jitter}")
        if not (math.isfinite(self.admission_wait_factor)
                and self.admission_wait_factor > 0.0):
            raise SimulationError(
                f"admission_wait_factor must be finite and positive, got "
                f"{self.admission_wait_factor}")


class Request(NamedTuple):
    """One generated request with all its randomness pre-drawn."""

    time_s: float
    tenant: str
    workload: str
    #: Multiplicative service jitter in ``[1 - jitter, 1 + jitter]``.
    jitter: float
    #: Whether this request hits the heavy-tail service spike.
    tail: bool


def generate_requests(tenants: Sequence[TenantSpec], offered_rps: float,
                      config: FleetConfig) -> List[Request]:
    """The merged, time-ordered request stream of one load level.

    Each tenant owns an independent ``Random(f"{seed}/{name}")`` stream
    (string seeding is deterministic across processes, unlike hash-based
    seeding), so adding or re-ordering tenants never perturbs another
    tenant's draws.  The merge orders by (time, tenant) and keeps one
    tenant's equal-time requests in arrival order (the sort is stable),
    so the stream is fully ordered for any population with unique tenant
    names.
    """
    if offered_rps <= 0.0:
        raise SimulationError(
            f"offered rate must be positive, got {offered_rps}")
    horizon_s = config.requests / offered_rps
    jitter_span = config.jitter
    tail_probability = config.tail_probability
    merged: List[Request] = []
    for tenant in tenants:
        rng = random.Random(f"{config.seed}/{tenant.name}")
        draw = rng.random
        sample_workload = tenant.sample_workload
        name = tenant.name
        process = arrival_process(tenant.arrival)
        for time_s in process.generate(rng, offered_rps * tenant.share,
                                       horizon_s):
            workload = sample_workload(rng)
            jitter = 1.0 + jitter_span * (2.0 * draw() - 1.0)
            merged.append(Request(time_s, name, workload, jitter,
                                  draw() < tail_probability))
    merged.sort(key=itemgetter(0, 1))
    return merged


class FleetDevice:
    """One serving device: a FCFS busy timeline plus a contention monitor."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.busy_until_ns = 0.0
        self.monitor = LinkContentionMonitor()
        self.served = 0

    def execute(self, now_ns: float, workload: str, estimate_ns: float,
                service_ns: float) -> float:
        """Serve one request; returns its end-to-end latency (ns)."""
        start = max(self.busy_until_ns, now_ns)
        end = start + service_ns
        self.busy_until_ns = end
        self.served += 1
        observed = end - now_ns  # queueing wait + service
        self.monitor.observe_movement(workload, estimate_ns, observed)
        return observed


@dataclass
class TenantOutcome:
    """Raw per-tenant accounting of one simulated load level."""

    tenant: str
    arrival: str
    latencies_ns: List[float] = field(default_factory=list)
    admitted: int = 0
    rejected: int = 0

    @property
    def offered(self) -> int:
        return self.admitted + self.rejected


@dataclass
class FleetOutcome:
    """Everything one ``simulate`` call produced."""

    offered_rps: float
    horizon_s: float
    tenants: "Dict[str, TenantOutcome]"
    per_device_served: List[int]

    @property
    def admitted(self) -> int:
        return sum(outcome.admitted for outcome in self.tenants.values())

    @property
    def rejected(self) -> int:
        return sum(outcome.rejected for outcome in self.tenants.values())

    def all_latencies_ns(self) -> List[float]:
        """Every admitted request's latency, in tenant-then-arrival order."""
        return [latency for outcome in self.tenants.values()
                for latency in outcome.latencies_ns]


def mean_service_ns(tenants: Sequence[TenantSpec],
                    models: Mapping[str, ServiceModel],
                    config: FleetConfig) -> float:
    """Expected service time of one request under the tenant mixes.

    Includes the tail-spike expectation so the derived capacity matches
    what the simulation actually serves; the jitter band is symmetric and
    contributes nothing in expectation.
    """
    expected = 0.0
    for tenant in tenants:
        for workload, weight in tenant.normalized_mix():
            model = models[workload]
            per_request = model.base_ns * (
                1.0 + config.tail_probability * (model.tail_ratio - 1.0))
            expected += tenant.share * weight * per_request
    return expected


def fleet_capacity_rps(tenants: Sequence[TenantSpec],
                       models: Mapping[str, ServiceModel],
                       config: FleetConfig) -> float:
    """Mean-service throughput ceiling of the whole fleet (requests/s)."""
    return config.devices * 1e9 / mean_service_ns(tenants, models, config)


class FleetSimulator:
    """Open-loop discrete-event simulation of one fleet configuration."""

    def __init__(self, config: Optional[FleetConfig] = None) -> None:
        self.config = config or FleetConfig()

    def simulate(self, tenants: Sequence[TenantSpec],
                 models: Mapping[str, ServiceModel], offered_rps: float,
                 requests: Sequence[Request]) -> FleetOutcome:
        """Serve one load level's ``requests``; returns the accounting.

        ``requests`` is the level's stream,
        ``generate_requests(tenants, offered_rps, self.config)``: it
        depends on neither the service models nor the fleet state, so
        fleets compared at one load level are served the same stream.
        ``models`` must cover every workload any tenant mixes.  Requests
        are processed in arrival order: admission checks the best
        device's predicted wait against the admission budget, placement
        takes the device with the lowest predicted finish (ties broken by
        device index, so the loop is fully deterministic).
        """
        population = validate_tenants(tenants)
        for tenant in population:
            for workload in tenant.workloads():
                if workload not in models:
                    raise SimulationError(
                        f"no service model for workload {workload!r} "
                        f"(tenant {tenant.name!r})")
        config = self.config
        devices = [FleetDevice(index) for index in range(config.devices)]
        overruns = [(device, device.monitor.overrun) for device in devices]
        wait_budget_ns = (config.admission_wait_factor *
                          mean_service_ns(population, models, config))
        outcomes: "Dict[str, TenantOutcome]" = {
            tenant.name: TenantOutcome(tenant=tenant.name,
                                       arrival=tenant.arrival)
            for tenant in population}
        for time_s, name, workload, jitter, tail in requests:
            now_ns = time_s * 1e9
            model = models[workload]
            estimate = model.base_ns
            # Placement score: predicted wait plus service scaled by the
            # device's absolute overrun (see the module docstring).  A
            # strict ``<`` in index order keeps the lowest index on ties.
            best = None
            best_score = best_wait = 0.0
            for device, overrun in overruns:
                busy = device.busy_until_ns
                wait = busy - now_ns if busy > now_ns else 0.0
                score = wait + estimate * overrun(workload)
                if best is None or score < best_score:
                    best, best_score, best_wait = device, score, wait
            outcome = outcomes[name]
            if best_wait > wait_budget_ns:
                outcome.rejected += 1
                continue
            latency = best.execute(now_ns, workload, estimate,
                                   model.service_ns(jitter, tail))
            outcome.admitted += 1
            outcome.latencies_ns.append(latency)
        return FleetOutcome(
            offered_rps=offered_rps,
            horizon_s=config.requests / offered_rps,
            tenants=outcomes,
            per_device_served=[device.served for device in devices])
