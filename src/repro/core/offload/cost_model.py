"""Conduit's holistic cost function (Equations 1 and 2).

For every instruction the cost function computes, per SSD computation
resource *i*::

    total_latency_resource_i = latency_comp + latency_dm
                               + max(delay_dd, delay_queue)

and selects::

    offloading_target = argmin(total_latency_ISP,
                               total_latency_PuD_SSD,
                               total_latency_IFP)

The maximum of the data-dependence and queueing delays is used because the
two overlap: an instruction starts only when both its operands and the
chosen resource are ready.  Ablation switches (sum instead of max, dropping
individual features) are exposed for the design-choice benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common import ResourceLike, SimulationError
from repro.core.offload.features import InstructionFeatures, ResourceFeatures


@dataclass(frozen=True)
class CostModelConfig:
    """Ablation switches for the cost function."""

    combine_delays_with_max: bool = True
    include_data_movement: bool = True
    include_queueing_delay: bool = True
    include_dependence_delay: bool = True


@dataclass(slots=True)
class CostEstimate:
    """Per-backend cost of one instruction."""

    resource: ResourceLike
    total_latency_ns: float
    compute_ns: float
    data_movement_ns: float
    overlap_delay_ns: float
    supported: bool


class CostFunction:
    """Implements Eqn. 1 / Eqn. 2 with optional ablations."""

    def __init__(self, config: Optional[CostModelConfig] = None) -> None:
        self.config = config or CostModelConfig()

    def estimate(self, features: ResourceFeatures) -> CostEstimate:
        """Equation 1 for one resource.

        The movement term is the contention-corrected estimate: the raw
        uncontended table lookup scaled by the EWMA-observed overrun of
        the candidate's operand path (exactly the raw lookup when
        ``PlatformConfig.contention_feedback`` is off).
        """
        config = self.config
        compute = features.expected_compute_latency_ns
        movement = (features.contended_data_movement_latency_ns
                    if config.include_data_movement else 0.0)
        dependence = (features.dependence_delay_ns
                      if config.include_dependence_delay else 0.0)
        queueing = (features.queueing_delay_ns
                    if config.include_queueing_delay else 0.0)
        overlap = (max(dependence, queueing)
                   if config.combine_delays_with_max
                   else dependence + queueing)
        total = compute + movement + overlap
        if not features.supported:
            total = float("inf")
        return CostEstimate(resource=features.resource,
                            total_latency_ns=total, compute_ns=compute,
                            data_movement_ns=movement,
                            overlap_delay_ns=overlap,
                            supported=features.supported)

    def select(self, features: InstructionFeatures
               ) -> Tuple[ResourceLike, Dict[ResourceLike, CostEstimate]]:
        """Equation 2: argmin over the registered offload candidates.

        Exact-cost ties break by backend *registration order*, which is
        stable for dynamically registered backends (an enum-value
        tie-break would silently depend on enum definition order and has
        no meaning for registry-minted identities).
        """
        estimate = self.estimate
        estimates: Dict[ResourceLike, CostEstimate] = {}
        target: Optional[ResourceLike] = None
        best = float("inf")
        # One pass in registration order; a strict < keeps the first
        # minimum, which is exactly the registration-order tie-break.
        for resource, feature in features.per_resource.items():
            cost = estimates[resource] = estimate(feature)
            if cost.supported and cost.total_latency_ns < best:
                target = resource
                best = cost.total_latency_ns
        if target is None:
            raise SimulationError(
                f"no SSD resource supports operation {features.op.value}")
        return target, estimates
