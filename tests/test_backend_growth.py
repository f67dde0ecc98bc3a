"""Config-grown platforms: per-core ISP, the CXL PuD tier, cache keys.

These tests prove the tentpole claim end-to-end: enabling the N-core ISP
roster or the CXL-attached PuD tier is *purely* a
:class:`~repro.core.platform.PlatformConfig` entry -- the offloader, cost
model and feature collector run unchanged -- and the cost model's
decisions actually shift onto the grown backends.  They also pin the
sweep-cache behaviour: a differently-shaped platform can never be served
another shape's cached results.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common import BackendId, MIB, Resource
from repro.core.offload.cost_model import CostFunction
from repro.core.offload.policies import ConduitPolicy, make_policy
from repro.core.platform import PlatformConfig, SSDPlatform
from repro.core.runtime import ConduitRuntime
from repro.dram.cxl import CXLPuDConfig
from repro.experiments import (ExperimentConfig, RunSpec, run_experiment,
                               run_spec_key)
from repro.experiments.backend_ablation import ABLATION_DEF
from repro.ssd.config import small_ssd_config
from repro.workloads import LLMTrainingWorkload, LlamaInferenceWorkload

from tests.test_offload import make_features


def _config(**kwargs) -> PlatformConfig:
    return PlatformConfig(ssd=small_ssd_config(),
                          dram_compute_window_bytes=2 * MIB,
                          host_cache_bytes=2 * MIB, **kwargs)


def _run(platform_config: PlatformConfig, workload):
    program, _ = workload.vector_program()
    return ConduitRuntime(SSDPlatform(platform_config)).execute(
        program, ConduitPolicy(), workload.name)


class TestMultiCoreISP:
    def test_per_core_backends_receive_work(self):
        workload = LLMTrainingWorkload(scale=0.05)
        result = _run(_config(isp_cores=3), workload)
        used = {record.resource for record in result.records}
        per_core = {resource for resource in used
                    if isinstance(resource, BackendId)
                    and resource.kind is Resource.ISP}
        # The cost function spread ISP-bound work over several cores.
        assert len(per_core) >= 2, used
        # The pooled identity no longer exists on this roster.
        assert Resource.ISP not in used

    def test_family_mix_is_preserved_across_rosters(self):
        workload = LLMTrainingWorkload(scale=0.05)
        pooled = _run(_config(), workload)
        split = _run(_config(isp_cores=3), workload)
        # Aggregated by family, both rosters cover the same three kinds.
        assert set(pooled.kind_fractions()) == set(split.kind_fractions())
        assert split.kind_fractions()[Resource.ISP] > 0

    def test_single_resource_baseline_balances_cores(self):
        workload = LLMTrainingWorkload(scale=0.05)
        program, _ = workload.vector_program()
        platform = SSDPlatform(_config(isp_cores=3))
        result = ConduitRuntime(platform).execute(
            program, make_policy("ISP"), workload.name)
        cores_used = {record.resource for record in result.records}
        assert len(cores_used) >= 2  # least-queued spread, not core 0 only


class TestCXLPuDTier:
    def test_cost_model_offloads_to_the_tier(self):
        workload = LlamaInferenceWorkload(scale=0.05)
        result = _run(_config(cxl_pud=CXLPuDConfig()), workload)
        fractions = result.ssd_resource_fractions()
        tier = BackendId("cxl-pud", Resource.PUD)
        assert fractions.get(tier, 0.0) > 0.0, fractions
        # Tier energy is accounted under its own report key.
        assert result.energy.per_resource_nj.get("cxl-pud", 0.0) > 0.0

    def test_tier_absent_from_default_roster(self):
        workload = LlamaInferenceWorkload(scale=0.05)
        result = _run(_config(), workload)
        tier = BackendId("cxl-pud", Resource.PUD)
        assert tier not in result.ssd_resource_fractions()

    def test_ablation_harness_reports_decision_shift(self):
        config = ExperimentConfig(workload_scale=0.05)
        definition = dataclasses.replace(
            ABLATION_DEF, workloads=("LlaMA2 Inference",))
        rows = run_experiment(definition, config,
                              parallel=False).sections["ablation"]
        assert len(rows) == 3  # one row per roster
        by_roster = {row["roster"]: row for row in rows}
        assert by_roster["default"]["grown_backends"] == 0.0
        assert by_roster["cxl-pud"]["grown_backends"] > 0.0


class TestSweepCacheRosterKeys:
    def test_roster_changes_the_run_spec_key(self):
        base = RunSpec(workload="XOR Filter", scale=0.05, policy="Conduit",
                       platform=_config())
        grown_isp = RunSpec(workload="XOR Filter", scale=0.05,
                            policy="Conduit",
                            platform=_config(isp_cores=4))
        grown_cxl = RunSpec(workload="XOR Filter", scale=0.05,
                            policy="Conduit",
                            platform=_config(cxl_pud=CXLPuDConfig()))
        keys = {run_spec_key(base), run_spec_key(grown_isp),
                run_spec_key(grown_cxl)}
        assert len(keys) == 3

    def test_key_is_stable_for_equal_specs(self):
        first = RunSpec(workload="XOR Filter", scale=0.05, policy="Conduit",
                        platform=_config(isp_cores=2))
        second = RunSpec(workload="XOR Filter", scale=0.05, policy="Conduit",
                         platform=_config(isp_cores=2))
        assert run_spec_key(first) == run_spec_key(second)


class TestRegistrationOrderTieBreak:
    def test_exact_tie_goes_to_first_registered(self):
        # ISP is registered before PUD and IFP; on an exact cost tie the
        # argmin must keep registration order -- not enum-value order,
        # which would pick IFP ("ifp" < "isp" < "pud-ssd").
        features = make_features(isp=(5.0, 0.0, 0.0, 0.0),
                                 pud=(5.0, 0.0, 0.0, 0.0),
                                 ifp=(5.0, 0.0, 0.0, 0.0))
        target, _ = CostFunction().select(features)
        assert target is Resource.ISP

    def test_partial_tie_respects_candidate_order(self):
        features = make_features(isp=(9.0, 0.0, 0.0, 0.0),
                                 pud=(5.0, 0.0, 0.0, 0.0),
                                 ifp=(5.0, 0.0, 0.0, 0.0))
        target, _ = CostFunction().select(features)
        assert target is Resource.PUD  # registered before IFP
