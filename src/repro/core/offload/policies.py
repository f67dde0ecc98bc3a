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
from repro.core.offload.features import InstructionFeatures, WaveBatch
from repro.core.platform import SSDPlatform


@dataclass(slots=True)
class PolicyContext:
    """Runtime information handed to a policy alongside the features."""

    platform: SSDPlatform
    now: float
    elapsed: float


@dataclass(slots=True)
class PackedMember:
    """One wave member's packed feature view (the batch-path carrier).

    The wave-batched offloader owns a single instance and mutates it per
    member (like :class:`PolicyContext`): policies read it synchronously
    inside :meth:`OffloadingPolicy.choose_packed` and never retain it.
    The live fields (``queue_delays_ns``, ``contention_delays_ns``,
    ``dependence_delay_ns``) were read at this member's decision time;
    the rest comes from the wave's precollected batch.  All values are
    collector-gated exactly like :class:`ResourceFeatures` fields, so
    :meth:`features` can materialize the member's full feature vector
    bit-identically -- that is the automatic per-instruction fallback.
    """

    collector: object
    batch: Optional[WaveBatch] = None
    index: int = 0
    instruction: Optional[VectorInstruction] = None
    #: Per-candidate static rows
    #: ``(resource, home, supported, compute_latency, queue)``.
    static: Optional[list] = None
    #: Per-candidate raw movement sums (collector-gated table lookups).
    movement_ns: Optional[List[float]] = None
    queue_delays_ns: Optional[List[float]] = None
    contention_delays_ns: Optional[List[float]] = None
    dependence_delay_ns: float = 0.0

    def features(self) -> InstructionFeatures:
        """Materialize the member's full :class:`InstructionFeatures`."""
        return self.collector.materialize(
            self.batch, self.index, self.dependence_delay_ns,
            self.queue_delays_ns, self.contention_delays_ns)


class OffloadingPolicy(abc.ABC):
    """Base class for instruction-granularity offloading policies.

    Policies see the platform's backend roster through
    ``features.candidates`` (registration order); single-resource
    baselines select backends by their resource *family* (``kind``), so a
    platform grown to several ISP cores or an extra PuD tier needs no
    policy edits.
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

    def choose_packed(self, packed: PackedMember,
                      context: PolicyContext) -> ResourceLike:
        """Batch entry point used by the wave-batched offload engine.

        The default implementation is the automatic per-instruction
        fallback: it materializes the member's full feature vector and
        delegates to :meth:`choose`, so custom policies stay correct --
        and bit-identical -- under ``PlatformConfig.batched_offload``
        without any change.  Policies with a cheaper packed evaluation
        (Conduit's cost function) override it.
        """
        return self.choose(packed.instruction, packed.features(), context)

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

    # -- Packed (wave-batch) helpers, mirroring the feature-object ones ---------------
    #
    # Static rows are ``(resource, home, supported, compute_latency,
    # queue)`` in registration order, so each helper below walks them in
    # exactly the order its feature-object counterpart walks
    # ``per_resource`` -- every strict ``<`` keeps the first minimum,
    # which is ``min``'s own first-occurrence tie-break.

    @staticmethod
    def _packed_fallback(static: list) -> ResourceLike:
        for entry in static:
            if entry[2]:
                return entry[0]
        raise SimulationError("no resource supports the instruction")

    @staticmethod
    def _packed_least_queued(packed: PackedMember,
                             indices: List[int]) -> ResourceLike:
        """The least-backlogged of the candidates at ``indices``."""
        queue_delays_ns = packed.queue_delays_ns
        static = packed.static
        target: Optional[ResourceLike] = None
        best = 0.0
        for index in indices:
            delay = queue_delays_ns[index]
            if target is None or delay < best:
                target = static[index][0]
                best = delay
        return target


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

    def choose_packed(self, packed: PackedMember,
                      context: PolicyContext) -> ResourceLike:
        """Equations 1 and 2 over the packed scalars, no feature objects.

        Term for term and in the same expression order as
        :meth:`CostFunction.estimate` /
        :meth:`CostFunction.select` (strict ``<`` keeps the first
        minimum, the registration-order tie-break), so the result is
        bit-identical to the materialize-and-select fallback.
        """
        cost_function = self.cost_function
        config = cost_function.config
        cost_function.evaluations += 1
        include_movement = config.include_data_movement
        include_queueing = config.include_queueing_delay
        dependence = (packed.dependence_delay_ns
                      if config.include_dependence_delay else 0.0)
        combine_max = config.combine_delays_with_max
        movement_ns = packed.movement_ns
        contention_ns = packed.contention_delays_ns
        queue_delays_ns = packed.queue_delays_ns
        target: Optional[ResourceLike] = None
        best = float("inf")
        for index, (resource, _, supported, compute,
                    _) in enumerate(packed.static):
            if not supported:
                continue
            if include_movement:
                raw = movement_ns[index]
                contention = contention_ns[index]
                movement = raw if contention == 0.0 else raw + contention
            else:
                movement = 0.0
            queueing = (queue_delays_ns[index] if include_queueing
                        else 0.0)
            overlap = ((dependence if dependence >= queueing else queueing)
                       if combine_max else dependence + queueing)
            total = compute + movement + overlap
            if total < best:
                target = resource
                best = total
        if target is None:
            raise SimulationError(
                f"no SSD resource supports operation "
                f"{packed.instruction.op.value}")
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

    def choose_packed(self, packed: PackedMember,
                      context: PolicyContext) -> ResourceLike:
        target: Optional[ResourceLike] = None
        best_key = None
        for resource, _, supported, compute_ns, _ in packed.static:
            if not supported:
                continue
            key = (compute_ns, resource.value)
            if best_key is None or key < best_key:
                target = resource
                best_key = key
        if target is None:
            raise SimulationError("no resource supports the instruction")
        return target


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

    def choose_packed(self, packed: PackedMember,
                      context: PolicyContext) -> ResourceLike:
        static = packed.static
        bandwidth_utilization = context.platform.bandwidth_utilization
        elapsed = context.elapsed
        target: Optional[ResourceLike] = None
        best_key = None
        for resource, _, supported, _, _ in static:
            if not supported:
                continue
            key = (bandwidth_utilization(resource, elapsed), resource.value)
            if best_key is None or key < best_key:
                target = resource
                best_key = key
        if target is None:
            return self._packed_fallback(static)
        return target


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

    def choose_packed(self, packed: PackedMember,
                      context: PolicyContext) -> ResourceLike:
        static = packed.static
        movement_ns = packed.movement_ns
        contention_ns = packed.contention_delays_ns
        target: Optional[ResourceLike] = None
        best_key = None
        for index, (resource, _, supported, compute_ns,
                    _) in enumerate(static):
            if not supported:
                continue
            raw = movement_ns[index]
            contention = contention_ns[index]
            # ResourceFeatures.contended_data_movement_latency_ns, term
            # for term.
            contended = raw if contention == 0.0 else raw + contention
            key = (contended, compute_ns, resource.value)
            if best_key is None or key < best_key:
                target = resource
                best_key = key
        if target is None:
            return self._packed_fallback(static)
        return target


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

    def choose_packed(self, packed: PackedMember,
                      context: PolicyContext) -> ResourceLike:
        static = packed.static
        cores = [index for index, entry in enumerate(static)
                 if entry[0].kind is Resource.ISP]
        if not cores:
            return self._packed_fallback(static)
        return self._packed_least_queued(packed, cores)


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

    def choose_packed(self, packed: PackedMember,
                      context: PolicyContext) -> ResourceLike:
        static = packed.static
        tiers = [index for index, entry in enumerate(static)
                 if entry[0].kind is Resource.PUD and entry[2]]
        if tiers:
            return self._packed_least_queued(packed, tiers)
        return self._packed_fallback(static)


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

    def choose_packed(self, packed: PackedMember,
                      context: PolicyContext) -> ResourceLike:
        static = packed.static
        if packed.instruction.op.is_bitwise:
            units = [index for index, entry in enumerate(static)
                     if entry[0].kind is Resource.IFP and entry[2]]
            if units:
                return self._packed_least_queued(packed, units)
        return self._packed_fallback(static)


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

    def choose_packed(self, packed: PackedMember,
                      context: PolicyContext) -> ResourceLike:
        static = packed.static
        units = [index for index, entry in enumerate(static)
                 if entry[0].kind is Resource.IFP and entry[2]]
        if units:
            return self._packed_least_queued(packed, units)
        return self._packed_fallback(static)


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

    def choose_packed(self, packed: PackedMember,
                      context: PolicyContext) -> ResourceLike:
        static = packed.static
        units = [index for index, entry in enumerate(static)
                 if entry[0].kind is Resource.IFP and entry[2]]
        cores = [index for index, entry in enumerate(static)
                 if entry[0].kind is Resource.ISP]
        if not units or not cores:
            return self._packed_fallback(static)
        self._toggle = not self._toggle
        return self._packed_least_queued(packed,
                                         units if self._toggle else cores)


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
