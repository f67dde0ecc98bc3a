"""Tests for feature collection, the cost function, transformation, policies."""

import pytest

from repro.common import OpType, Resource, SSD_RESOURCES
from repro.core.compiler.ir import ArrayRef, VectorInstruction
from repro.core.layout import ArrayLayout
from repro.core.offload.cost_model import CostFunction, CostModelConfig
from repro.core.offload.features import (FeatureCollector,
                                         InstructionFeatures,
                                         ResourceFeatures)
from repro.core.offload.policies import (AresFlashPolicy, BWOffloadingPolicy,
                                         ConduitPolicy, DMOffloadingPolicy,
                                         FlashCosmosPolicy, IdealPolicy,
                                         ISPOnlyPolicy, POLICY_REGISTRY,
                                         PolicyContext, PuDOnlyPolicy,
                                         make_policy)
from repro.core.offload.transform import (InstructionTransformer,
                                          TRANSLATION_LOOKUP_NS)
from repro.core.platform import SSDPlatform


def make_features(op=OpType.ADD, *, isp=(10.0, 0.0, 0.0, 0.0),
                  pud=(5.0, 0.0, 0.0, 0.0), ifp=(20.0, 0.0, 0.0, 0.0),
                  ifp_supported=True, pud_supported=True):
    """Build a synthetic feature vector: (compute, dm, queue, dependence)."""
    def resource_features(resource, values, supported):
        compute, movement, queue, dependence = values
        return ResourceFeatures(resource=resource, supported=supported,
                                expected_compute_latency_ns=compute,
                                data_movement_latency_ns=movement,
                                queueing_delay_ns=queue,
                                dependence_delay_ns=dependence)

    return InstructionFeatures(
        instruction_uid=0, op=op, operand_locations={},
        per_resource={
            Resource.ISP: resource_features(Resource.ISP, isp, True),
            Resource.PUD: resource_features(Resource.PUD, pud, pud_supported),
            Resource.IFP: resource_features(Resource.IFP, ifp, ifp_supported),
        },
        collection_latency_ns=1000.0)


def make_instruction(op=OpType.ADD):
    return VectorInstruction(uid=0, op=op, dest=None, sources=(),
                             vector_length=4096, element_bits=32)


@pytest.fixture
def context(platform):
    return PolicyContext(platform=platform, now=0.0, elapsed=1000.0)


class TestCostFunction:
    def test_equation_one_uses_max_of_delays(self):
        features = make_features(isp=(10.0, 5.0, 8.0, 3.0))
        estimate = CostFunction().estimate(
            features.feature(Resource.ISP))
        assert estimate.total_latency_ns == pytest.approx(10 + 5 + 8)

    def test_equation_one_sum_ablation(self):
        features = make_features(isp=(10.0, 5.0, 8.0, 3.0))
        config = CostModelConfig(combine_delays_with_max=False)
        estimate = CostFunction(config).estimate(
            features.feature(Resource.ISP))
        assert estimate.total_latency_ns == pytest.approx(10 + 5 + 8 + 3)

    def test_argmin_selects_cheapest_resource(self):
        target, estimates = CostFunction().select(make_features())
        assert target is Resource.PUD
        assert estimates[Resource.PUD].total_latency_ns == 5.0

    def test_unsupported_resources_are_excluded(self):
        features = make_features(pud=(1.0, 0, 0, 0), pud_supported=False)
        target, _ = CostFunction().select(features)
        assert target is Resource.ISP

    def test_feature_ablation_changes_choice(self):
        # With queueing disabled, the heavily queued PUD resource wins.
        features = make_features(pud=(5.0, 0.0, 100.0, 0.0),
                                 isp=(10.0, 0.0, 0.0, 0.0))
        default_target, _ = CostFunction().select(features)
        assert default_target is Resource.ISP
        ablated = CostFunction(CostModelConfig(include_queueing_delay=False))
        ablated_target, _ = ablated.select(features)
        assert ablated_target is Resource.PUD


class TestFeatureCollector:
    def collector(self, platform):
        layout = ArrayLayout(platform.page_size)
        from repro.core.compiler.ir import ArraySpec
        layout.place(ArraySpec("a", 1 << 20, 32))
        platform.setup_dataset(layout.all_lpas())
        return FeatureCollector(platform, layout), layout

    def test_collects_all_resources(self, platform):
        collector, _ = self.collector(platform)
        instruction = VectorInstruction(
            uid=0, op=OpType.ADD, dest=ArrayRef("a", 0, 4096),
            sources=(ArrayRef("a", 4096, 4096),))
        features = collector.collect(instruction, 0.0, 0.0)
        assert set(features.per_resource) == set(SSD_RESOURCES)
        assert features.collection_latency_ns > 0

    def test_unsupported_ops_get_infinite_compute(self, platform):
        collector, _ = self.collector(platform)
        instruction = VectorInstruction(
            uid=0, op=OpType.GATHER, dest=ArrayRef("a", 0, 4096),
            sources=(ArrayRef("a", 4096, 4096),))
        features = collector.collect(instruction, 0.0, 0.0)
        assert features.feature(Resource.IFP).supported is False
        assert features.feature(Resource.ISP).supported is True

    def test_flash_resident_operands_favor_ifp_movement(self, platform):
        collector, _ = self.collector(platform)
        instruction = VectorInstruction(
            uid=0, op=OpType.AND, dest=ArrayRef("a", 0, 4096),
            sources=(ArrayRef("a", 4096, 4096),))
        features = collector.collect(instruction, 0.0, 0.0)
        assert features.feature(Resource.IFP).data_movement_latency_ns == 0.0
        assert features.feature(Resource.PUD).data_movement_latency_ns > 0.0

    def test_dependence_delay_passthrough(self, platform):
        collector, _ = self.collector(platform)
        instruction = make_instruction()
        features = collector.collect(instruction, 0.0, 1234.0)
        assert features.feature(Resource.ISP).dependence_delay_ns == 1234.0

    def test_average_overhead_close_to_paper(self, platform):
        collector, _ = self.collector(platform)
        instruction = VectorInstruction(
            uid=0, op=OpType.ADD, dest=ArrayRef("a", 0, 4096),
            sources=(ArrayRef("a", 4096, 4096),))
        features = collector.collect(instruction, 0.0, 0.0)
        # Section 4.5: average 3.77 us; allow a generous band.
        assert 1_000.0 < features.collection_latency_ns < 40_000.0


class TestTransformer:
    def test_native_mnemonics_per_resource(self, platform):
        transformer = InstructionTransformer(platform)
        assert transformer.native_op(OpType.ADD, Resource.ISP) == "vadd"
        assert transformer.native_op(OpType.ADD, Resource.PUD) == "bbop_add"
        assert transformer.native_op(OpType.AND, Resource.IFP) == "mws_and"
        assert (transformer.native_op(OpType.MUL, Resource.IFP)
                == "shift_and_add(loop)")

    def test_unsupported_pairs_raise(self, platform):
        transformer = InstructionTransformer(platform)
        with pytest.raises(Exception):
            transformer.native_op(OpType.GATHER, Resource.IFP)

    def test_table_size_close_to_paper(self, platform):
        transformer = InstructionTransformer(platform)
        # Paper: ~1.5 KiB translation table in SSD DRAM.
        assert transformer.table_bytes() <= 1536

    def test_split_matches_resource_granularity(self, platform):
        transformer = InstructionTransformer(platform)
        instruction = make_instruction()
        subs, chunk = transformer.split(instruction, Resource.PUD)
        row_bytes = platform.backends[Resource.PUD].row_bytes
        assert subs == pytest.approx(instruction.size_bytes / row_bytes,
                                     abs=1)
        subs_ifp, _ = transformer.split(instruction, Resource.IFP)
        assert subs_ifp >= 1

    def test_transform_charges_lookup_latency(self, platform):
        transformer = InstructionTransformer(platform)
        instruction = make_instruction()
        transformed = transformer.transform(instruction, Resource.PUD)
        assert transformed.lookup_latency_ns == TRANSLATION_LOOKUP_NS == 300.0
        assert transformed.uid == instruction.uid
        assert transformed.resource is Resource.PUD


class TestPolicies:
    def test_registry_builds_every_policy(self):
        for name in POLICY_REGISTRY:
            assert make_policy(name).name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(Exception):
            make_policy("nonsense")

    def test_conduit_uses_cost_function(self, context):
        policy = ConduitPolicy()
        assert policy.choose(make_instruction(), make_features(),
                             context) is Resource.PUD

    def test_ideal_picks_lowest_compute_latency(self, context):
        features = make_features(isp=(1.0, 0, 0, 0), pud=(5.0, 0, 0, 0),
                                 ifp=(2.0, 0, 0, 0))
        assert IdealPolicy().choose(make_instruction(), features,
                                    context) is Resource.ISP
        assert IdealPolicy().is_ideal

    def test_dm_offloading_minimizes_data_movement(self, context):
        features = make_features(isp=(1.0, 500.0, 0, 0),
                                 pud=(5.0, 400.0, 0, 0),
                                 ifp=(50.0, 0.0, 0, 0))
        assert DMOffloadingPolicy().choose(make_instruction(), features,
                                           context) is Resource.IFP

    def test_bw_offloading_prefers_idle_resources(self, platform):
        context = PolicyContext(platform=platform, now=0.0, elapsed=1e6)
        # Load the ISP queue so its utilization is non-zero.
        platform.queues[Resource.ISP].reserve(1, 0.0, 1e6)
        choice = BWOffloadingPolicy().choose(make_instruction(),
                                             make_features(), context)
        assert choice in (Resource.PUD, Resource.IFP)

    def test_single_resource_policies(self, context):
        bitwise = make_features(op=OpType.AND)
        arithmetic = make_features(op=OpType.ADD)
        unsupported_ifp = make_features(op=OpType.SELECT,
                                        ifp_supported=False)
        assert ISPOnlyPolicy().choose(
            make_instruction(OpType.AND), bitwise, context) is Resource.ISP
        assert PuDOnlyPolicy().choose(
            make_instruction(OpType.ADD), arithmetic, context) is Resource.PUD
        assert FlashCosmosPolicy().choose(
            make_instruction(OpType.AND), bitwise, context) is Resource.IFP
        assert FlashCosmosPolicy().choose(
            make_instruction(OpType.ADD), arithmetic, context) is Resource.ISP
        assert AresFlashPolicy().choose(
            make_instruction(OpType.ADD), arithmetic, context) is Resource.IFP
        assert AresFlashPolicy().choose(
            make_instruction(OpType.SELECT), unsupported_ifp,
            context) is Resource.ISP
