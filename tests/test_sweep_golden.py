"""Golden regression suite for the full-scale experiment sweeps.

Extends the pattern of ``tests/test_movement.py`` to the sweep
engine: the complete Fig. 7 speedup and energy tables (serial execution,
``workload_scale = 0.25``, the shared experiment platform configuration)
are pinned as golden values, and a sharded ``sweep(parallel=True)`` must
reproduce them *exactly* -- bit-identical simulated time, energy and
per-instruction records, independent of worker count or completion order.

Also covers the two satellites that make the goldens trustworthy:

* determinism -- back-to-back runs of the same (workload, policy) pair on
  fresh platforms produce identical :class:`ExecutionResult` fields;
* :func:`make_policy` coverage -- every Fig. 5 / Fig. 7 policy name
  resolves, unknown names raise a clear :class:`ValueError`, and each
  registered policy picks a supported resource for a representative
  instruction.
"""

from __future__ import annotations

import math

import pytest

from repro.common import OpType, Resource
from repro.core.compiler.ir import ArrayRef, ArraySpec, VectorInstruction
from repro.core.layout import ArrayLayout
from repro.core.offload.features import FeatureCollector
from repro.core.offload.policies import (POLICY_REGISTRY, PolicyContext,
                                         make_policy)
from repro.experiments import (ExperimentConfig, ExperimentRunner,
                               FIG5_POLICIES, FIG7_POLICIES, energy_table,
                               execute_run_spec, run_experiment,
                               speedup_table)
from repro.experiments.runner import HOST_POLICIES
from repro.workloads import Jacobi1DWorkload, XORFilterWorkload

#: Workload scale the golden tables were recorded at (serial sweep, shared
#: experiment platform config).
GOLDEN_SCALE = 0.25

REL_TOL = 1e-9

#: Fig. 7(a): speedup over CPU per workload plus GMEAN, recorded from a
#: serial sweep at ``workload_scale = 0.25``.
GOLDEN_SPEEDUPS = {
    "AES": {
        "GPU": 3.7800568330504865,
        "ISP": 0.2901793449600227,
        "PuD-SSD": 3.2560981508416638,
        "Flash-Cosmos": 0.03922070323812673,
        "Ares-Flash": 0.257712402444218,
        "BW-Offloading": 0.22175466009994443,
        "DM-Offloading": 2.0886613871355784,
        "Conduit": 2.0886613871355784,
        "Ideal": 6.962028496618469,
    },
    "LLM Training": {
        "GPU": 1.0346386596013741,
        "ISP": 0.8327997080606637,
        "PuD-SSD": 1.033253987541686,
        "Flash-Cosmos": 0.8327997080606637,
        "Ares-Flash": 0.937150746396802,
        "BW-Offloading": 0.5504700653690731,
        "DM-Offloading": 0.6907241529276839,
        "Conduit": 1.8990107011660722,
        "Ideal": 45.60665058492698,
    },
    "LlaMA2 Inference": {
        "GPU": 1.1205393779638364,
        "ISP": 0.357361612917803,
        "PuD-SSD": 0.548866567804799,
        "Flash-Cosmos": 0.357361612917803,
        "Ares-Flash": 0.2396742539166676,
        "BW-Offloading": 0.10659937887293154,
        "DM-Offloading": 1.238337315872287,
        "Conduit": 0.4463732854508687,
        "Ideal": 11.831085737462091,
    },
    "XOR Filter": {
        "GPU": 1.0060125893168443,
        "ISP": 0.3336795390893052,
        "PuD-SSD": 0.4242110713340992,
        "Flash-Cosmos": 0.16764625093106852,
        "Ares-Flash": 0.09006822834576197,
        "BW-Offloading": 0.04962511819194152,
        "DM-Offloading": 0.35742635939541095,
        "Conduit": 0.3562343550457106,
        "Ideal": 2.742044080875656,
    },
    "heat-3d": {
        "GPU": 2.0644627172716135,
        "ISP": 0.3541732844319075,
        "PuD-SSD": 1.1560695764388653,
        "Flash-Cosmos": 0.3541732844319075,
        "Ares-Flash": 0.20319111597626804,
        "BW-Offloading": 0.20319111597626804,
        "DM-Offloading": 0.20319111597626804,
        "Conduit": 1.1852742290432672,
        "Ideal": 3.9784266021857198,
    },
    "jacobi-1d": {
        "GPU": 1.5002994624984014,
        "ISP": 0.46751106146607163,
        "PuD-SSD": 0.9962206127697493,
        "Flash-Cosmos": 0.46751106146607163,
        "Ares-Flash": 0.18921900332184644,
        "BW-Offloading": 0.18921900332184644,
        "DM-Offloading": 0.18921900332184644,
        "Conduit": 0.9660809217380913,
        "Ideal": 3.666365818383908,
    },
    "GMEAN": {
        "GPU": 1.5460270727773353,
        "ISP": 0.4103067904246966,
        "PuD-SSD": 0.9829893405148763,
        "Flash-Cosmos": 0.2620761876969207,
        "Ares-Flash": 0.2419178277819652,
        "BW-Offloading": 0.17080032501283346,
        "DM-Offloading": 0.5391106948170244,
        "Conduit": 0.9472042372229255,
        "Ideal": 7.2912450123519585,
    },
}

#: Fig. 7(b): total energy normalized to CPU per (workload, policy).
GOLDEN_ENERGY_TOTALS = {
    "AES": {
        "CPU": 1.0,
        "GPU": 0.18058801774102576,
        "ISP": 1.2573197769500213,
        "PuD-SSD": 0.11404704205374044,
        "Flash-Cosmos": 9.330601973171277,
        "Ares-Flash": 1.5391295131135008,
        "BW-Offloading": 1.636102235672957,
        "DM-Offloading": 0.1780964767501582,
        "Conduit": 0.1780964767501582,
        "Ideal": 0.051806504002716726,
    },
    "LLM Training": {
        "CPU": 1.0,
        "GPU": 0.5541668699815124,
        "ISP": 1.869495659600523,
        "PuD-SSD": 1.514599254190956,
        "Flash-Cosmos": 1.869495659600523,
        "Ares-Flash": 1.7198402501419732,
        "BW-Offloading": 2.8297076147426425,
        "DM-Offloading": 2.2793074753447633,
        "Conduit": 0.8914419789126048,
        "Ideal": 0.03279876613176464,
    },
    "LlaMA2 Inference": {
        "CPU": 1.0,
        "GPU": 0.3015432237000646,
        "ISP": 1.5097974836389323,
        "PuD-SSD": 0.9956079273363828,
        "Flash-Cosmos": 1.5097974836389323,
        "Ares-Flash": 2.465465159793487,
        "BW-Offloading": 5.023461294370234,
        "DM-Offloading": 0.7052792036558005,
        "Conduit": 1.259699153946541,
        "Ideal": 0.04486426374461373,
    },
    "XOR Filter": {
        "CPU": 1.0,
        "GPU": 1.1934308776406868,
        "ISP": 1.2227940886070585,
        "PuD-SSD": 0.9605839419292227,
        "Flash-Cosmos": 2.3862075870134904,
        "Ares-Flash": 4.467974424420038,
        "BW-Offloading": 7.958222641334033,
        "DM-Offloading": 1.1430436474821513,
        "Conduit": 1.1467385298351118,
        "Ideal": 0.14357254901874225,
    },
    "heat-3d": {
        "CPU": 1.0,
        "GPU": 0.13077018505374108,
        "ISP": 1.4778226308667377,
        "PuD-SSD": 0.4513266022352887,
        "Flash-Cosmos": 1.4778226308667377,
        "Ares-Flash": 2.876431038893103,
        "BW-Offloading": 2.876431038893103,
        "DM-Offloading": 2.876431038893103,
        "Conduit": 0.4427686375945858,
        "Ideal": 0.13008803977710884,
    },
    "jacobi-1d": {
        "CPU": 1.0,
        "GPU": 0.1957752625205344,
        "ISP": 1.6080287583123698,
        "PuD-SSD": 0.7529810740636163,
        "Flash-Cosmos": 1.6080287583123698,
        "Ares-Flash": 4.194067939775689,
        "BW-Offloading": 4.194067939775689,
        "DM-Offloading": 4.194067939775689,
        "Conduit": 0.7774039160528293,
        "Ideal": 0.20222080690380662,
    },
}

#: Fig. 7(b): Conduit's data-movement energy share, normalized to CPU.
GOLDEN_CONDUIT_ENERGY_DM = {
    "AES": 0.003523290153591617,
    "LLM Training": 0.06611566565856777,
    "LlaMA2 Inference": 0.060084160168146744,
    "XOR Filter": 0.022191883313081695,
    "heat-3d": 0.0047533101921792605,
    "jacobi-1d": 0.009813275596427997,
}


def assert_close(label: str, got: float, expected: float) -> None:
    assert math.isclose(got, expected, rel_tol=REL_TOL, abs_tol=1e-12), (
        f"{label} diverged: got {got!r}, expected {expected!r}")


def assert_tables_match_golden(results) -> None:
    policies = [policy for policy in FIG7_POLICIES if policy != "CPU"]
    speedups = speedup_table(results, policies)
    assert set(speedups) == set(GOLDEN_SPEEDUPS)
    for workload, row in GOLDEN_SPEEDUPS.items():
        assert set(speedups[workload]) == set(row)
        for policy, expected in row.items():
            assert_close(f"speedup[{workload}][{policy}]",
                         speedups[workload][policy], expected)
    energy = energy_table(results, FIG7_POLICIES)
    for workload, row in GOLDEN_ENERGY_TOTALS.items():
        for policy, expected in row.items():
            assert_close(f"energy[{workload}][{policy}]",
                         energy[workload][policy]["total"], expected)
    for workload, expected in GOLDEN_CONDUIT_ENERGY_DM.items():
        assert_close(f"energy-dm[{workload}][Conduit]",
                     energy[workload]["Conduit"]["data_movement"], expected)


@pytest.fixture(scope="module")
def golden_config() -> ExperimentConfig:
    # Platform defaults to the shared experiment_platform_config(); the
    # goldens must be re-pinned if that configuration ever changes.
    return ExperimentConfig(workload_scale=GOLDEN_SCALE)


@pytest.fixture(scope="module")
def serial_results(golden_config):
    return ExperimentRunner(golden_config).sweep(FIG7_POLICIES)


class TestFig7Goldens:
    def test_serial_sweep_reproduces_goldens(self, serial_results):
        assert_tables_match_golden(serial_results)

    def test_parallel_sweep_is_bit_identical_to_serial(self, golden_config,
                                                       serial_results):
        # Two workers even on a single-CPU machine, so the process-pool
        # path (pickling, worker-side reconstruction, order reassembly)
        # is genuinely exercised rather than falling back in-process.
        parallel = ExperimentRunner(golden_config).sweep(
            FIG7_POLICIES, parallel=True, workers=2)
        assert list(parallel) == list(serial_results)
        for key, serial in serial_results.items():
            shard = parallel[key]
            assert shard.total_time_ns == serial.total_time_ns, key
            assert shard.total_energy_nj == serial.total_energy_nj, key
            assert shard.energy.compute_nj == serial.energy.compute_nj, key
            assert (shard.energy.data_movement_nj ==
                    serial.energy.data_movement_nj), key
            assert len(shard.records) == len(serial.records), key
            for ours, theirs in zip(shard.records, serial.records):
                assert ours.resource is theirs.resource, key
                assert ours.end_ns == theirs.end_ns, key
        assert_tables_match_golden(parallel)

    def test_goldens_pin_the_uncorrected_cost_model(self, golden_config):
        # The contention-aware feedback is opt-in (the `*-feedback`
        # platform variants); the shared experiment platform leaves it
        # off, which is what keeps every table in this file bit-exact.
        # Re-pin the goldens if this default ever flips.
        assert golden_config.platform.contention_feedback is False

    def test_run_experiment_engine_reproduces_goldens(self, golden_config,
                                                      serial_results):
        # The declarative experiment API must be a pure re-plumbing: the
        # registered ``fig7`` definition, executed by the shared
        # run_experiment() engine on the ``default`` platform variant,
        # reproduces the pinned tables bit-exactly.
        result = run_experiment("fig7", golden_config, parallel=False)
        grid = result.platform_grid("default")
        assert list(grid) == list(serial_results)
        for key, serial in serial_results.items():
            assert grid[key].total_time_ns == serial.total_time_ns, key
            assert grid[key].total_energy_nj == serial.total_energy_nj, key
        assert_tables_match_golden(grid)
        assert set(result.sections) == {"fig7a", "fig7b"}


class TestDeterminism:
    @pytest.mark.parametrize("policy", ["CPU", "Conduit", "DM-Offloading"])
    def test_back_to_back_runs_are_identical(self, policy):
        config = ExperimentConfig(workload_scale=0.05)
        runner = ExperimentRunner(config)
        workload = XORFilterWorkload(scale=0.05)
        first = runner.run(workload, policy)
        second = runner.run(workload, policy)
        assert first.total_time_ns == second.total_time_ns
        assert first.total_energy_nj == second.total_energy_nj
        assert first.energy.compute_nj == second.energy.compute_nj
        assert (first.energy.data_movement_nj ==
                second.energy.data_movement_nj)
        assert (first.breakdown.as_dict() == second.breakdown.as_dict())
        assert first.offload_overhead_avg_ns == second.offload_overhead_avg_ns
        assert len(first.records) == len(second.records)
        for ours, theirs in zip(first.records, second.records):
            assert (ours.uid, ours.op, ours.resource) == \
                (theirs.uid, theirs.op, theirs.resource)
            assert ours.dispatch_ns == theirs.dispatch_ns
            assert ours.end_ns == theirs.end_ns
            assert ours.data_movement_ns == theirs.data_movement_ns

    def test_worker_path_matches_fresh_process_state(self):
        # A worker reconstructs the workload from (name, scale); the
        # result must match the parent's in-process execution exactly.
        config = ExperimentConfig(workload_scale=0.05)
        runner = ExperimentRunner(config)
        workload = Jacobi1DWorkload(scale=0.05)
        in_process = runner.run(workload, "Conduit")
        spec = runner.spec_for(workload, "Conduit")
        from_spec = execute_run_spec(spec)
        assert in_process.total_time_ns == from_spec.total_time_ns
        assert in_process.total_energy_nj == from_spec.total_energy_nj
        assert len(in_process.records) == len(from_spec.records)


class TestMakePolicyCoverage:
    def test_every_fig_policy_name_resolves(self):
        for name in set(FIG7_POLICIES) | set(FIG5_POLICIES):
            if name in HOST_POLICIES:
                continue  # host baselines run through HostRuntime
            assert make_policy(name).name == name

    def test_host_policies_are_the_expected_baselines(self):
        assert set(HOST_POLICIES) == {"CPU", "GPU"}
        assert set(HOST_POLICIES) <= set(FIG7_POLICIES)
        assert set(HOST_POLICIES) - {"GPU"} <= set(FIG5_POLICIES)

    def test_unknown_name_raises_clear_value_error(self):
        with pytest.raises(ValueError, match="unknown offloading policy"):
            make_policy("Conduits")
        with pytest.raises(ValueError, match="Conduit"):
            # The message lists the known policies.
            make_policy("nonsense")

    @pytest.mark.parametrize("op", [OpType.ADD, OpType.XOR])
    def test_every_policy_chooses_a_supported_resource(self, platform, op):
        layout = ArrayLayout(platform.page_size)
        layout.place(ArraySpec("a", 1 << 20, 32))
        platform.setup_dataset(layout.all_lpas())
        collector = FeatureCollector(platform, layout)
        instruction = VectorInstruction(
            uid=0, op=op, dest=ArrayRef("a", 0, 4096),
            sources=(ArrayRef("a", 4096, 4096),))
        features = collector.collect(instruction, 0.0, 0.0)
        context = PolicyContext(platform=platform, now=0.0, elapsed=1000.0)
        for name in POLICY_REGISTRY:
            choice = make_policy(name).choose(instruction, features, context)
            assert isinstance(choice, Resource), name
            assert features.feature(choice).supported, (name, op)
