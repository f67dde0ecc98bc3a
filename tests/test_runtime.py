"""End-to-end tests: offloader + runtimes executing whole programs."""

import dataclasses

import pytest

from repro.common import MIB, OpType, Resource
from repro.core.coherence import CoherencePolicy
from repro.core.metrics import (ExecutionBreakdown, ExecutionResult,
                                energy_reduction, geometric_mean, speedup)
from repro.core.offload.policies import make_policy
from repro.core.platform import PlatformConfig, SSDPlatform
from repro.core.runtime import ConduitRuntime, HostRuntime
from repro.energy.model import EnergyBreakdown
from repro.experiments import (ExperimentConfig, coherence_ablation_rows,
                               experiment_platform_config)
from repro.ssd.config import small_ssd_config
from repro.workloads import workload_by_name


def run(program, policy_name, platform_config):
    return run_on(SSDPlatform(platform_config), program, policy_name)


def run_on(platform, program, policy_name):
    if policy_name in ("CPU", "GPU"):
        device = (Resource.HOST_CPU if policy_name == "CPU"
                  else Resource.HOST_GPU)
        return HostRuntime(platform).execute(program, device)
    return ConduitRuntime(platform).execute(program,
                                            make_policy(policy_name))


class TestConduitRuntime:
    def test_executes_every_instruction(self, tiny_vector_program,
                                        platform_config):
        result = run(tiny_vector_program, "Conduit", platform_config)
        assert result.instructions == len(tiny_vector_program)
        assert result.total_time_ns > 0
        assert result.total_energy_nj > 0

    def test_dependencies_are_respected(self, tiny_vector_program,
                                        platform_config):
        result = run(tiny_vector_program, "Conduit", platform_config)
        completion = {record.uid: record.end_ns for record in result.records}
        for instruction in tiny_vector_program.instructions:
            for dep in instruction.depends_on:
                assert completion[dep] <= \
                    completion[instruction.uid] + 1e-6

    def test_records_are_internally_consistent(self, tiny_vector_program,
                                               platform_config):
        for policy in ("Conduit", "Ideal", "CPU"):
            result = run(tiny_vector_program, policy, platform_config)
            for record in result.records:
                assert (0 <= record.dispatch_ns <= record.ready_ns
                        <= record.start_ns <= record.end_ns)
                assert record.latency_ns >= record.compute_ns

    def test_offload_overhead_summarizes_the_records(self,
                                                    tiny_vector_program,
                                                    platform_config):
        # Section 4.5's average and maximum are taken over the records.
        for policy in ("Conduit", "Ideal"):
            result = run(tiny_vector_program, policy, platform_config)
            overheads = [record.overhead_ns for record in result.records]
            assert min(overheads) > 0
            assert result.offload_overhead_avg_ns == (sum(overheads)
                                                      / len(overheads))
            assert result.offload_overhead_max_ns == max(overheads)

    def test_only_ssd_resources_are_used(self, tiny_vector_program,
                                         platform_config):
        result = run(tiny_vector_program, "Conduit", platform_config)
        assert all(record.resource.is_in_ssd for record in result.records)

    def test_isp_only_policy_uses_only_isp(self, tiny_vector_program,
                                           platform_config):
        result = run(tiny_vector_program, "ISP", platform_config)
        fractions = result.ssd_resource_fractions()
        assert fractions[Resource.ISP] == pytest.approx(1.0)

    def test_ideal_is_fastest(self, tiny_vector_program, platform_config):
        ideal = run(tiny_vector_program, "Ideal", platform_config)
        for policy in ("Conduit", "ISP", "DM-Offloading"):
            other = run(tiny_vector_program, policy, platform_config)
            assert ideal.total_time_ns <= other.total_time_ns

    def test_offload_overhead_within_paper_band(self, tiny_vector_program,
                                                platform_config):
        result = run(tiny_vector_program, "Conduit", platform_config)
        # Paper: 3.77 us average, up to 33 us.
        assert 0.5 < result.offload_overhead_avg_ns / 1000.0 < 40.0

    def test_binary_transfer_adds_setup_time(self, tiny_vector_program,
                                             platform_config):
        platform = SSDPlatform(platform_config)
        with_transfer = ConduitRuntime(platform).execute(
            tiny_vector_program, make_policy("Conduit"))
        assert platform.ssd.nvme.latest_binary is not None
        assert with_transfer.total_time_ns > 0

    def test_empty_program_rejected(self, platform_config):
        from repro.core.compiler.ir import VectorProgram
        runtime = ConduitRuntime(SSDPlatform(platform_config))
        with pytest.raises(Exception):
            runtime.execute(VectorProgram("empty"), make_policy("Conduit"))

    def test_ssd_returns_to_regular_io_mode(self, tiny_vector_program,
                                            platform_config):
        platform = SSDPlatform(platform_config)
        ConduitRuntime(platform).execute(tiny_vector_program,
                                         make_policy("Conduit"))
        from repro.ssd.nvme import SSDMode
        assert platform.ssd.mode is SSDMode.REGULAR_IO


class TestHostRuntime:
    def test_cpu_execution(self, tiny_vector_program, platform_config):
        result = run(tiny_vector_program, "CPU", platform_config)
        assert result.policy == "CPU"
        assert all(record.resource is Resource.HOST_CPU
                   for record in result.records)
        assert result.breakdown.host_data_movement_ns > 0

    def test_gpu_rejects_non_host_device(self, tiny_vector_program,
                                         platform_config):
        runtime = HostRuntime(SSDPlatform(platform_config))
        with pytest.raises(Exception):
            runtime.execute(tiny_vector_program, Resource.IFP)

    def test_host_energy_includes_pcie_movement(self, tiny_vector_program,
                                                platform_config):
        result = run(tiny_vector_program, "CPU", platform_config)
        assert result.energy.per_transfer_kind_nj.get("pcie", 0.0) > 0


class TestStrictCoherence:
    """Strict coherence writes every produced page through to flash."""

    def test_offloaded_writes_go_through_to_flash(self):
        rows = {row["coherence"]: row for row in coherence_ablation_rows(
            ExperimentConfig(workload_scale=0.1))}
        assert rows["lazy"]["flushes"] == 0 < rows["strict"]["flushes"]
        assert rows["strict"]["time_ms"] > rows["lazy"]["time_ms"]

    def test_host_writes_go_through_to_flash(self, tiny_vector_program,
                                             platform_config):
        runs = {}
        for policy in CoherencePolicy:
            platform = SSDPlatform(dataclasses.replace(
                platform_config, coherence_policy=policy))
            result = HostRuntime(platform).execute(tiny_vector_program,
                                                   Resource.HOST_CPU)
            runs[policy] = (result, platform)
        lazy, _ = runs[CoherencePolicy.LAZY]
        strict, strict_platform = runs[CoherencePolicy.STRICT]
        # Every strict commit is one page written back over the buses.
        flushes = strict_platform.coherence.flushes
        assert strict_platform.movement.writeback_pages == flushes > 0
        assert strict.total_time_ns > lazy.total_time_ns
        assert strict.total_energy_nj > lazy.total_energy_nj


#: Strict-coherence runs pinned bit-exactly (scale 0.1, the experiment
#: platform with ``coherence_policy=STRICT``): (workload, policy) ->
#: (total_time_ns, total_energy_nj, coherence flushes, write-back pages).
#: Every strict commit of a page produced outside flash is one write-back;
#: IFP produces its pages in flash, so Conduit writes back fewer pages
#: than it flushes.
STRICT_GOLDEN = {
    ("heat-3d", "CPU"):
        (725363.3333333333, 52804448.666666664, 140, 140),
    ("heat-3d", "Conduit"):
        (609739.3633440514, 29470861.934353694, 140, 140),
    ("heat-3d", "PuD-SSD"):
        (609739.3633440514, 29464939.118353695, 140, 140),
    ("LlaMA2 Inference", "CPU"):
        (5081132.541666667, 118061681.20833334, 212, 212),
    ("LlaMA2 Inference", "Conduit"):
        (4541713.697749204, 168785826.28172374, 212, 187),
    ("LlaMA2 Inference", "PuD-SSD"):
        (4427142.240085747, 162814626.54682967, 212, 212),
    ("XOR Filter", "CPU"):
        (466635.79166666657, 14684648.458333332, 30, 30),
    ("XOR Filter", "Conduit"):
        (430003.2936763128, 16261287.523318322, 30, 23),
    ("XOR Filter", "PuD-SSD"):
        (382094.72668810276, 15004176.68470739, 30, 30),
}


@pytest.fixture(scope="module")
def strict_programs():
    return {name: workload_by_name(name, scale=0.1).vector_program()[0]
            for name in {workload for workload, _ in STRICT_GOLDEN}}


@pytest.mark.parametrize("workload, policy", sorted(STRICT_GOLDEN))
def test_strict_coherence_golden(strict_programs, workload, policy):
    platform = SSDPlatform(dataclasses.replace(
        experiment_platform_config(),
        coherence_policy=CoherencePolicy.STRICT))
    result = run_on(platform, strict_programs[workload], policy)
    assert (result.total_time_ns, result.total_energy_nj,
            platform.coherence.flushes,
            platform.movement.writeback_pages) == STRICT_GOLDEN[
                (workload, policy)]


class TestMetricsHelpers:
    def test_speedup_and_energy_reduction(self, tiny_vector_program,
                                          platform_config):
        cpu = run(tiny_vector_program, "CPU", platform_config)
        ideal = run(tiny_vector_program, "Ideal", platform_config)
        assert speedup(cpu, ideal) > 1.0
        assert energy_reduction(cpu, ideal) > 0.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    @staticmethod
    def _result(time_ns: float, energy_nj: float) -> ExecutionResult:
        return ExecutionResult(
            workload="w", policy="p", total_time_ns=time_ns, records=[],
            energy=EnergyBreakdown(compute_nj=energy_nj,
                                   data_movement_nj=0.0, per_resource_nj={},
                                   per_transfer_kind_nj={}),
            breakdown=ExecutionBreakdown())

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan")])
    def test_geometric_mean_rejects_non_positive_values(self, bad):
        with pytest.raises(ValueError, match=repr(bad)):
            geometric_mean([1.0, bad, 4.0])

    def test_speedup_rejects_zero_time_candidate(self):
        with pytest.raises(ValueError, match="'p' on 'w'.*0.0 ns"):
            speedup(self._result(5.0, 1.0), self._result(0.0, 1.0))

    def test_energy_reduction_rejects_zero_energy_baseline(self):
        with pytest.raises(ValueError, match="'p' on 'w'.*0.0 nJ"):
            energy_reduction(self._result(1.0, 0.0), self._result(1.0, 2.0))

    def test_tail_latency_percentiles_ordered(self, tiny_vector_program,
                                              platform_config):
        result = run(tiny_vector_program, "Conduit", platform_config)
        assert result.p9999_latency_ns >= result.p99_latency_ns > 0

    def test_timeline_shape(self, tiny_vector_program, platform_config):
        result = run(tiny_vector_program, "Conduit", platform_config)
        timeline = result.timeline(limit=10)
        assert len(timeline) == 10
        assert {"index", "uid", "op", "resource", "start_ns",
                "end_ns"} <= set(timeline[0])
        # None means every record, 0 none; a negative limit is an error.
        assert len(result.timeline()) == result.instructions > 10
        assert result.timeline(limit=0) == []
        with pytest.raises(ValueError, match="-1"):
            result.timeline(limit=-1)
