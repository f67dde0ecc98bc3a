"""Execution metrics and result containers.

Everything the evaluation section reports is derived from the structures in
this module: total execution time and speedups (Fig. 5 / 7a), energy split
into data movement and computation (Fig. 7b), per-instruction latency
distributions and tails (Fig. 8), per-resource offloading fractions
(Fig. 9), and the instruction-to-resource timeline (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common import OpType, Resource, ResourceLike, SSD_RESOURCES
from repro.energy.model import EnergyBreakdown
from repro.ssd.lifetime.engine import MaintenanceStats


@dataclass(slots=True)
class InstructionRecord:
    """Timing of one executed instruction."""

    uid: int
    op: OpType
    resource: ResourceLike
    dispatch_ns: float
    ready_ns: float
    start_ns: float
    end_ns: float
    compute_ns: float
    data_movement_ns: float
    overhead_ns: float

    def __reduce__(self):
        # One positional tuple per record: a run pickles thousands of
        # them into the sweep cache, and the default slot-state dict costs
        # about three times as much to dump.
        return (InstructionRecord,
                (self.uid, self.op, self.resource, self.dispatch_ns,
                 self.ready_ns, self.start_ns, self.end_ns, self.compute_ns,
                 self.data_movement_ns, self.overhead_ns))

    @property
    def latency_ns(self) -> float:
        """End-to-end latency from dispatch to completion."""
        return self.end_ns - self.dispatch_ns

    @property
    def queue_wait_ns(self) -> float:
        """Time spent waiting for an execution slot once ready."""
        return self.start_ns - self.ready_ns


@dataclass
class ExecutionBreakdown:
    """Where execution time went (Fig. 4 categories)."""

    compute_ns: float = 0.0
    host_data_movement_ns: float = 0.0
    internal_data_movement_ns: float = 0.0
    flash_read_ns: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "compute": self.compute_ns,
            "host_data_movement": self.host_data_movement_ns,
            "internal_data_movement": self.internal_data_movement_ns,
            "flash_read": self.flash_read_ns,
        }

    def normalized(self) -> Dict[str, float]:
        total = sum(self.as_dict().values())
        if total <= 0:
            return {key: 0.0 for key in self.as_dict()}
        return {key: value / total for key, value in self.as_dict().items()}


@dataclass
class ExecutionResult:
    """The outcome of executing one workload under one policy."""

    workload: str
    policy: str
    total_time_ns: float
    records: List[InstructionRecord]
    energy: EnergyBreakdown
    breakdown: ExecutionBreakdown
    offload_overhead_avg_ns: float = 0.0
    offload_overhead_max_ns: float = 0.0
    #: Device-lifetime view of the run: background GC/WL traffic, wear
    #: statistics and write amplification.  Every run the runtimes
    #: execute carries one; ``None`` only on results built by hand.
    maintenance: Optional[MaintenanceStats] = None

    # -- Derived metrics ----------------------------------------------------------

    @property
    def instructions(self) -> int:
        return len(self.records)

    @property
    def total_energy_nj(self) -> float:
        return self.energy.total_nj

    def resource_fractions(self) -> Dict[ResourceLike, float]:
        """Fraction of instructions executed on each backend (Fig. 9)."""
        if not self.records:
            return {}
        counts: Dict[ResourceLike, int] = {}
        for record in self.records:
            counts[record.resource] = counts.get(record.resource, 0) + 1
        total = len(self.records)
        return {resource: count / total for resource, count in counts.items()}

    def ssd_resource_fractions(self) -> Dict[ResourceLike, float]:
        """Fractions restricted to the in-SSD backends (Fig. 9).

        The canonical trio is always present (zero when unused); backends
        a registry-grown platform added (per-core ISP queues, extra PuD
        tiers) appear under their own identities.
        """
        fractions = self.resource_fractions()
        ssd_only: Dict[ResourceLike, float] = {
            r: fractions.get(r, 0.0) for r in SSD_RESOURCES}
        for resource, value in fractions.items():
            if resource.is_in_ssd and resource not in ssd_only:
                ssd_only[resource] = value
        total = sum(ssd_only.values())
        if total <= 0:
            return ssd_only
        return {r: value / total for r, value in ssd_only.items()}

    def kind_fractions(self) -> Dict[Resource, float]:
        """In-SSD fractions aggregated by resource family.

        Folds registry-grown backends into their canonical family (all
        ``isp[i]`` cores count as ISP, every PuD tier as PuD-SSD), which
        is what roster ablations compare across platform shapes.
        """
        fractions = self.ssd_resource_fractions()
        by_kind: Dict[Resource, float] = {r: 0.0 for r in SSD_RESOURCES}
        for resource, value in fractions.items():
            by_kind[resource.kind] = by_kind.get(resource.kind, 0.0) + value
        return by_kind

    def latency_percentile(self, percentile: float) -> float:
        """Per-instruction latency percentile in nanoseconds (Fig. 8)."""
        if not self.records:
            return 0.0
        latencies = np.array([record.latency_ns for record in self.records])
        return float(np.percentile(latencies, percentile))

    @property
    def p99_latency_ns(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def p9999_latency_ns(self) -> float:
        return self.latency_percentile(99.99)

    def mean_latency_ns(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([record.latency_ns for record in self.records]))

    def timeline(self, limit: Optional[int] = None
                 ) -> List[Dict[str, object]]:
        """Instruction-to-resource mapping over time (Fig. 10)."""
        records = self.records[:limit] if limit else self.records
        return [
            {"index": index, "uid": record.uid, "op": record.op.value,
             "resource": record.resource.value, "start_ns": record.start_ns,
             "end_ns": record.end_ns}
            for index, record in enumerate(records)
        ]


def speedup(baseline: ExecutionResult, candidate: ExecutionResult) -> float:
    """Speedup of ``candidate`` over ``baseline`` (>1 means faster).

    Every simulated run takes time, so a non-positive candidate time means
    a broken result; it raises instead of reporting an infinite speedup.
    """
    if not candidate.total_time_ns > 0:
        raise ValueError(
            f"speedup of {candidate.policy!r} on {candidate.workload!r} is "
            f"undefined: its time is {candidate.total_time_ns!r} ns")
    return baseline.total_time_ns / candidate.total_time_ns


def energy_reduction(baseline: ExecutionResult,
                     candidate: ExecutionResult) -> float:
    """Fractional energy reduction of ``candidate`` versus ``baseline``.

    A non-positive baseline energy cannot normalize anything; it raises
    instead of reporting "no reduction".
    """
    if not baseline.total_energy_nj > 0:
        raise ValueError(
            f"energy reduction versus {baseline.policy!r} on "
            f"{baseline.workload!r} is undefined: its energy is "
            f"{baseline.total_energy_nj!r} nJ")
    return 1.0 - candidate.total_energy_nj / baseline.total_energy_nj


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean used for the GMEAN columns of Fig. 5 / 7.

    An empty sequence gives ``0.0``; a non-positive (or NaN) value raises,
    since dropping it would silently shift the mean.
    """
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        return 0.0
    bad = array[~(array > 0)]
    if bad.size:
        raise ValueError(
            f"geometric mean needs positive values; got {float(bad[0])!r}")
    return float(np.exp(np.mean(np.log(array))))
