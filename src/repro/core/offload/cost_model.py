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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
        self.evaluations = 0

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
        self.evaluations += 1
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

    def select_batch(self, features_list: Sequence[InstructionFeatures]
                     ) -> Tuple[List[ResourceLike], np.ndarray]:
        """Vectorized Equation 2 over N instructions.

        Builds the ``(candidates x instructions)`` total-latency matrix --
        each element evaluated with exactly :meth:`estimate`'s expression
        order, unsupported candidates pinned to ``inf`` -- and takes
        ``np.argmin`` along the candidate axis.  ``np.argmin`` returns the
        *first* minimum, which is precisely the strict-``<``
        registration-order tie-break of N sequential :meth:`select` calls,
        so the two are provably identical (pinned by
        ``tests/test_batched_offload.py``).  All instructions must share
        one candidate roster (one platform).  Returns the selected
        resources (one per instruction) and the matrix.
        """
        count = len(features_list)
        if count == 0:
            return [], np.empty((0, 0), dtype=np.float64)
        config = self.config
        include_movement = config.include_data_movement
        include_dependence = config.include_dependence_delay
        include_queueing = config.include_queueing_delay
        combine_max = config.combine_delays_with_max
        candidates = list(features_list[0].per_resource)
        inf = float("inf")
        totals = np.empty((len(candidates), count), dtype=np.float64)
        for column, features in enumerate(features_list):
            for row, feature in enumerate(features.per_resource.values()):
                if not feature.supported:
                    totals[row, column] = inf
                    continue
                compute = feature.expected_compute_latency_ns
                movement = (feature.contended_data_movement_latency_ns
                            if include_movement else 0.0)
                dependence = (feature.dependence_delay_ns
                              if include_dependence else 0.0)
                queueing = (feature.queueing_delay_ns
                            if include_queueing else 0.0)
                overlap = (max(dependence, queueing) if combine_max
                           else dependence + queueing)
                totals[row, column] = compute + movement + overlap
        self.evaluations += count
        winners = np.argmin(totals, axis=0)
        selected: List[ResourceLike] = []
        for column, row in enumerate(winners):
            if totals[row, column] == inf:
                raise SimulationError(
                    f"no SSD resource supports operation "
                    f"{features_list[column].op.value}")
            selected.append(candidates[row])
        return selected, totals
