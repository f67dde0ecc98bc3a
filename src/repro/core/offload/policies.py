"""Offloading policies: Conduit and the prior-work baselines.

The paper evaluates Conduit against two classes of prior NDP offloading
models (Section 3.2 / 5.3) plus single-resource NDP techniques:

* **BW-Offloading** -- offloads each instruction to the computation resource
  with the lowest bandwidth utilization, ignoring data-movement cost.
* **DM-Offloading** -- offloads each instruction to the resource that
  minimizes operand data movement, ignoring contention.
* **ISP / PuD-SSD / Flash-Cosmos / Ares-Flash** -- single-resource NDP
  techniques; operations the technique does not support fall back to the
  SSD controller cores (Section 5.3).
* **Ideal** -- assumes no queueing delays, zero data-movement latency, and
  always picks the resource with the lowest computation latency (an upper
  bound, not realizable).
* **Conduit** -- the holistic cost function of
  :mod:`repro.core.offload.cost_model`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional

from repro.common import Resource, ResourceLike, SimulationError
from repro.core.compiler.ir import VectorInstruction
from repro.core.offload.cost_model import CostFunction, CostModelConfig
from repro.core.offload.features import InstructionFeatures
from repro.core.platform import SSDPlatform


@dataclass(slots=True)
class PolicyContext:
    """Runtime information handed to a policy alongside the features."""

    platform: SSDPlatform
    now: float
    elapsed: float


class OffloadingPolicy(abc.ABC):
    """Base class for instruction-granularity offloading policies.

    Policies see the platform's backend roster through
    ``features.candidates`` (registration order); single-resource
    baselines select backends by their resource *family* (``kind``), so a
    platform grown to several ISP cores or an extra PuD tier needs no
    policy edits.  :meth:`choose` is a policy's one decision method: both
    offload engines hand it the same :class:`InstructionFeatures`.
    """

    #: Human-readable policy name used in experiment tables.
    name: str = "policy"
    #: Ideal policies are executed without contention or data movement.
    is_ideal: bool = False

    @abc.abstractmethod
    def choose(self, instruction: VectorInstruction,
               features: InstructionFeatures,
               context: PolicyContext) -> ResourceLike:
        """Pick the compute backend for ``instruction``."""

    @staticmethod
    def _viable(features: InstructionFeatures) -> List[ResourceLike]:
        """Supported candidates in registration order."""
        return [resource
                for resource, feature in features.per_resource.items()
                if feature.supported]

    @staticmethod
    def _of_kind(features: InstructionFeatures,
                 kind: Resource) -> List[ResourceLike]:
        """Candidates of one resource family, in registration order."""
        return [resource for resource in features.per_resource
                if resource.kind is kind]

    @classmethod
    def _least_queued(cls, features: InstructionFeatures,
                      candidates: List[ResourceLike]) -> ResourceLike:
        """The least-backlogged candidate (ties keep registration order)."""
        per_resource = features.per_resource
        return min(candidates,
                   key=lambda r: per_resource[r].queueing_delay_ns)

    @staticmethod
    def _fallback(features: InstructionFeatures) -> ResourceLike:
        for resource, feature in features.per_resource.items():
            if feature.supported:
                return resource
        raise SimulationError("no resource supports the instruction")


class ConduitPolicy(OffloadingPolicy):
    """The paper's holistic cost-function policy (Equations 1 and 2)."""

    name = "Conduit"

    def __init__(self, cost_config: Optional[CostModelConfig] = None) -> None:
        self.cost_function = CostFunction(cost_config)

    def choose(self, instruction: VectorInstruction,
               features: InstructionFeatures,
               context: PolicyContext) -> ResourceLike:
        target, _ = self.cost_function.select(features)
        return target


class IdealPolicy(OffloadingPolicy):
    """Upper bound: lowest computation latency, no contention, free moves.

    The prior-work baselines (Ideal, BW-, DM-Offloading) keep their
    historical ``r.value`` tie-break: their pinned golden behaviour
    predates the registry (BW-Offloading ties on all-zero utilization at
    startup, where the lexicographic order is observable), and they are
    frozen reference points rather than evolving policies.  Conduit's
    cost function is the one that tie-breaks by registration order.
    """

    name = "Ideal"
    is_ideal = True

    def choose(self, instruction: VectorInstruction,
               features: InstructionFeatures,
               context: PolicyContext) -> ResourceLike:
        viable = self._viable(features)
        return min(viable, key=lambda r: (
            features.feature(r).expected_compute_latency_ns, r.value))


class BWOffloadingPolicy(OffloadingPolicy):
    """Bandwidth-utilization-based offloading (TOM-style models)."""

    name = "BW-Offloading"

    def choose(self, instruction: VectorInstruction,
               features: InstructionFeatures,
               context: PolicyContext) -> ResourceLike:
        viable = self._viable(features)
        if not viable:
            return self._fallback(features)
        utilization = {r: context.platform.bandwidth_utilization(
            r, context.elapsed) for r in viable}
        return min(viable, key=lambda r: (utilization[r], r.value))


class DMOffloadingPolicy(OffloadingPolicy):
    """Data-movement-minimizing offloading (ALP-style models).

    Ranks by the contention-corrected movement estimate, which is exactly
    the raw table lookup (and therefore the pinned golden behaviour)
    unless ``PlatformConfig.contention_feedback`` is enabled.
    """

    name = "DM-Offloading"

    def choose(self, instruction: VectorInstruction,
               features: InstructionFeatures,
               context: PolicyContext) -> ResourceLike:
        viable = self._viable(features)
        if not viable:
            return self._fallback(features)
        return min(viable, key=lambda r: (
            features.feature(r).contended_data_movement_latency_ns,
            features.feature(r).expected_compute_latency_ns, r.value))


class ISPOnlyPolicy(OffloadingPolicy):
    """All computation on the SSD controller cores.

    On a multi-core roster (``isp[0..n)``) work goes to the
    least-backlogged core, which is what a firmware round-robin converges
    to; on the default roster this is always the single ISP backend.
    """

    name = "ISP"

    def choose(self, instruction: VectorInstruction,
               features: InstructionFeatures,
               context: PolicyContext) -> ResourceLike:
        cores = self._of_kind(features, Resource.ISP)
        if not cores:
            return self._fallback(features)
        return self._least_queued(features, cores)


class PuDOnlyPolicy(OffloadingPolicy):
    """PuD-SSD (MIMDRAM in the SSD DRAM); unsupported ops fall back to ISP."""

    name = "PuD-SSD"

    def choose(self, instruction: VectorInstruction,
               features: InstructionFeatures,
               context: PolicyContext) -> ResourceLike:
        tiers = [r for r in self._of_kind(features, Resource.PUD)
                 if features.feature(r).supported]
        if tiers:
            return self._least_queued(features, tiers)
        return self._fallback(features)


class FlashCosmosPolicy(OffloadingPolicy):
    """Flash-Cosmos: in-flash bulk bitwise; everything else on ISP."""

    name = "Flash-Cosmos"

    def choose(self, instruction: VectorInstruction,
               features: InstructionFeatures,
               context: PolicyContext) -> ResourceLike:
        if instruction.op.is_bitwise:
            units = [r for r in self._of_kind(features, Resource.IFP)
                     if features.feature(r).supported]
            if units:
                return self._least_queued(features, units)
        return self._fallback(features)


class AresFlashPolicy(OffloadingPolicy):
    """Ares-Flash: in-flash bitwise + arithmetic; fallback to ISP."""

    name = "Ares-Flash"

    def choose(self, instruction: VectorInstruction,
               features: InstructionFeatures,
               context: PolicyContext) -> ResourceLike:
        units = [r for r in self._of_kind(features, Resource.IFP)
                 if features.feature(r).supported]
        if units:
            return self._least_queued(features, units)
        return self._fallback(features)


class NaiveIFPISPPolicy(OffloadingPolicy):
    """Naively alternate between IFP and ISP without any cost awareness.

    This is the "naively combining IFP and ISP" configuration of the
    Fig. 4 case study (Section 3.1): supported operations alternate between
    the two resources, which adds inter-resource data movement and can hurt
    I/O-intensive workloads.
    """

    name = "IFP+ISP"

    def __init__(self) -> None:
        self._toggle = False

    def choose(self, instruction: VectorInstruction,
               features: InstructionFeatures,
               context: PolicyContext) -> ResourceLike:
        units = [r for r in self._of_kind(features, Resource.IFP)
                 if features.feature(r).supported]
        cores = self._of_kind(features, Resource.ISP)
        if not units or not cores:
            return self._fallback(features)
        self._toggle = not self._toggle
        return (self._least_queued(features, units) if self._toggle
                else self._least_queued(features, cores))


#: Registry of instantiable policies keyed by their experiment-table names.
POLICY_REGISTRY = {
    ConduitPolicy.name: ConduitPolicy,
    IdealPolicy.name: IdealPolicy,
    BWOffloadingPolicy.name: BWOffloadingPolicy,
    DMOffloadingPolicy.name: DMOffloadingPolicy,
    ISPOnlyPolicy.name: ISPOnlyPolicy,
    PuDOnlyPolicy.name: PuDOnlyPolicy,
    FlashCosmosPolicy.name: FlashCosmosPolicy,
    AresFlashPolicy.name: AresFlashPolicy,
    NaiveIFPISPPolicy.name: NaiveIFPISPPolicy,
}


def make_policy(name: str) -> OffloadingPolicy:
    """Instantiate a policy by its experiment-table name.

    Raises a :class:`ValueError` naming the known policies, so a typo in a
    figure harness or sweep spec fails with an actionable message.
    """
    if name not in POLICY_REGISTRY:
        known = ", ".join(sorted(POLICY_REGISTRY))
        raise ValueError(f"unknown offloading policy {name!r}; known "
                         f"policies: {known}")
    return POLICY_REGISTRY[name]()
