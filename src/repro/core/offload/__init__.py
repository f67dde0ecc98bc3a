"""Conduit runtime offloading: features, cost function, policies, dispatch."""

from repro.core.offload.cost_model import (CostEstimate, CostFunction,
                                           CostModelConfig)
from repro.core.offload.features import (FeatureCollector,
                                         InstructionFeatures,
                                         ResourceFeatures)
from repro.core.offload.offloader import SSDOffloader
from repro.core.offload.policies import (AresFlashPolicy, BWOffloadingPolicy,
                                         ConduitPolicy, DMOffloadingPolicy,
                                         FlashCosmosPolicy, IdealPolicy,
                                         ISPOnlyPolicy, OffloadingPolicy,
                                         POLICY_REGISTRY, PolicyContext,
                                         PuDOnlyPolicy, make_policy)
from repro.core.offload.transform import (InstructionTransformer,
                                          TransformedInstruction,
                                          TRANSLATION_LOOKUP_NS)

__all__ = [
    "CostEstimate", "CostFunction", "CostModelConfig", "FeatureCollector",
    "InstructionFeatures", "ResourceFeatures", "SSDOffloader",
    "AresFlashPolicy",
    "BWOffloadingPolicy", "ConduitPolicy", "DMOffloadingPolicy",
    "FlashCosmosPolicy", "IdealPolicy", "ISPOnlyPolicy", "OffloadingPolicy",
    "POLICY_REGISTRY", "PolicyContext", "PuDOnlyPolicy", "make_policy",
    "InstructionTransformer", "TransformedInstruction",
    "TRANSLATION_LOOKUP_NS",
]
