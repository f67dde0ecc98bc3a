"""Tests for the contention-aware offload cost model.

Three layers of coverage, mirroring how the feature is built:

* **Monitor invariants** -- :class:`LinkContentionMonitor` EWMA/clamping
  semantics and the relative-overrun normalization.
* **Simulation invariants** (property-style, on a real platform):

  - with zero traffic, feedback-on feature vectors and cost estimates
    equal feedback-off *exactly* (bit-for-bit);
  - movement estimates are monotonically non-decreasing in the injected
    (observed) link overrun of the candidate's path;
  - feedback never changes the selected backend when only one candidate
    exists.

* **The regression the feature exists to close** -- on the ``cxl-pud``
  roster at the golden scale, LLM Training with ``contention_feedback``
  is no slower than the greedy cost model and no slower than the
  host-only baseline (the exact failure mode the ROADMAP documented).

Plus the plumbing guarantees: ``contention_feedback`` is folded into the
sweep-cache key, and a feedback-on sweep is serial == parallel
bit-identical (EWMA state is per-run, never leaked across shards).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import MIB, OpType, SimulationError
from repro.core.compiler.ir import ArrayRef, ArraySpec, VectorInstruction
from repro.core.contention import MAX_OVERRUN_RATIO, LinkContentionMonitor
from repro.core.layout import ArrayLayout
from repro.core.offload.cost_model import CostFunction
from repro.core.offload.features import FeatureCollector
from repro.core.platform import PlatformConfig, SSDPlatform
from repro.experiments import (ExperimentConfig, ExperimentRunner,
                               platform_variant, run_spec_key,
                               with_contention_feedback)
from repro.ssd.config import small_ssd_config
from repro.workloads import Jacobi1DWorkload, workload_by_name

#: Scale the cxl-pud regression test runs at: the golden scale, where the
#: ROADMAP documented the LLM-Training roster-ablation row regressing.
REGRESSION_SCALE = 0.25

#: Feedback-on LLM Training runs at scale 0.1, pinned as ``float.hex``
#: (total time ns, total energy nJ).  Conduit on ``cxl-pud-feedback``
#: charges the CXL command link's backlog; DM-Offloading ranks by the
#: contended movement estimate alone.
FEEDBACK_GOLDEN = {
    ("cxl-pud-feedback", "Conduit"): (
        "0x1.df2ea618b1cc9p+21", "0x1.fe00fb7685b0fp+26"),
    ("cxl-pud-feedback", "DM-Offloading"): (
        "0x1.9e37bf4c01184p+21", "0x1.faaedd83d1c4ep+26"),
    ("default-feedback", "DM-Offloading"): (
        "0x1.9e2fef4c01184p+21", "0x1.faa6cf03d1c4ep+26"),
}


def tiny_platform_config(**overrides) -> PlatformConfig:
    return PlatformConfig(ssd=small_ssd_config(),
                          dram_compute_window_bytes=1 * MIB,
                          host_cache_bytes=1 * MIB, **overrides)


def make_instruction(uid: int = 0) -> VectorInstruction:
    return VectorInstruction(
        uid=uid, op=OpType.ADD, dest=ArrayRef("a", 0, 4096),
        sources=(ArrayRef("a", 4096, 4096), ArrayRef("b", 0, 4096)))


def observe(platform: SSDPlatform, resource, estimated_ns: float,
            observed_ns: float) -> None:
    """Report one movement into ``resource``'s home to the monitor."""
    platform.contention.observe_movement(
        platform.backends[resource].home_location, estimated_ns,
        observed_ns)


def collector_on(platform: SSDPlatform) -> FeatureCollector:
    layout = ArrayLayout(platform.page_size)
    layout.place(ArraySpec("a", 1 << 20, 32))
    layout.place(ArraySpec("b", 1 << 20, 32))
    platform.setup_dataset(layout.all_lpas())
    return FeatureCollector(platform, layout)


class TestLinkContentionMonitor:
    def test_first_observation_seeds_directly(self):
        monitor = LinkContentionMonitor(alpha=0.25)
        monitor.observe_movement("host", 100.0, 400.0)
        assert monitor.overrun("host") == 4.0

    def test_ewma_blends_later_samples(self):
        monitor = LinkContentionMonitor(alpha=0.5)
        monitor.observe_movement("host", 100.0, 400.0)
        monitor.observe_movement("host", 100.0, 200.0)
        assert monitor.overrun("host") == pytest.approx(3.0)

    def test_faster_than_estimate_clamps_to_one(self):
        monitor = LinkContentionMonitor()
        monitor.observe_movement("ssd-dram", 100.0, 10.0)
        assert monitor.overrun("ssd-dram") == 1.0
        assert monitor.scale("ssd-dram") == 1.0

    def test_outlier_clamped_so_paths_stay_correctable(self):
        monitor = LinkContentionMonitor(alpha=1.0)
        monitor.observe_movement("host", 1.0, 1e9)
        assert monitor.overrun("host") == MAX_OVERRUN_RATIO

    def test_zero_estimate_carries_no_signal(self):
        monitor = LinkContentionMonitor()
        monitor.observe_movement("host", 0.0, 500.0)
        assert monitor.samples == 0
        assert monitor.overrun("host") == 1.0

    def test_relative_overrun_cancels_the_common_leg(self):
        monitor = LinkContentionMonitor(alpha=1.0, gain=1.0)
        monitor.observe_movement("ssd-dram", 100.0, 400.0)
        monitor.observe_movement("host", 100.0, 600.0)
        # Both paths congested 4x/6x; only the excess separates them.
        assert monitor.relative_overrun("ssd-dram") == 1.0
        assert monitor.relative_overrun("host") == pytest.approx(1.5)
        assert monitor.scale("ssd-dram") == 1.0
        assert monitor.scale("host") == pytest.approx(1.5)

    def test_unobserved_path_is_assumed_as_good_as_the_best(self):
        monitor = LinkContentionMonitor(alpha=1.0)
        monitor.observe_movement("host", 100.0, 900.0)
        assert monitor.relative_overrun("flash") == 1.0
        assert monitor.scale("flash") == 1.0

    def test_gain_amplifies_the_relative_excess(self):
        monitor = LinkContentionMonitor(alpha=1.0, gain=2.0)
        monitor.observe_movement("ssd-dram", 100.0, 100.0)
        monitor.observe_movement("host", 100.0, 300.0)
        assert monitor.scale("host") == pytest.approx(1.0 + 2.0 * 2.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_invalid_alpha_rejected(self, alpha):
        with pytest.raises(SimulationError, match="alpha"):
            LinkContentionMonitor(alpha=alpha)

    def test_penalty_terms(self):
        class Linked:
            """A backend whose private link is 50 ns behind."""

            def link_backlog_ns(self, now: float) -> float:
                return 50.0

        monitor = LinkContentionMonitor(alpha=1.0, gain=1.0)
        # Nothing observed: the movement term is the link backlog alone
        # and the execution-channel term is not charged yet.
        assert monitor.penalty_ns("host", 100.0, Linked(), 0.0, 30.0) == 50.0
        monitor.observe_movement("ssd-dram", 100.0, 100.0)
        monitor.observe_movement("host", 100.0, 300.0)
        assert monitor.penalty_ns("host", 100.0, Linked(), 0.0,
                                  30.0) == 100.0 * 2.0 + 50.0 + 30.0
        # A candidate that moves nothing pays only its channel time.
        assert monitor.penalty_ns("host", 0.0, Linked(), 0.0, 30.0) == 30.0

    def test_negative_gain_rejected(self):
        with pytest.raises(SimulationError, match="gain"):
            LinkContentionMonitor(gain=-1.0)

    def test_negative_observation_rejected(self):
        monitor = LinkContentionMonitor()
        with pytest.raises(SimulationError, match="negative"):
            monitor.observe_movement("host", 100.0, -1.0)

    @given(alpha=st.floats(min_value=0.05, max_value=1.0),
           gain=st.floats(min_value=0.0, max_value=4.0),
           steps=st.lists(st.tuples(
               st.sampled_from(("observe", "relative", "scale")),
               st.sampled_from(("flash", "ssd-dram", "host", "cxl")),
               st.floats(min_value=0.0, max_value=1e4),
               st.floats(min_value=0.0, max_value=1e5)), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_cached_floor_matches_a_per_query_minimum(self, alpha, gain,
                                                      steps):
        """The floor is recomputed once per observation, not per query;
        every answer still equals, bit for bit, the reference that takes
        the minimum on every query."""
        monitor = LinkContentionMonitor(alpha=alpha, gain=gain)

        def reference_relative(path: str) -> float:
            overrun = monitor._overrun
            if not overrun:
                return 1.0
            floor = min(overrun.values())
            return overrun.get(path, floor) / floor

        for action, path, estimated, observed in steps:
            if action == "observe":
                monitor.observe_movement(path, estimated, observed)
                continue
            expected = reference_relative(path)
            if action == "relative":
                assert monitor.relative_overrun(path) == expected
            else:
                assert monitor.scale(path) == (
                    1.0 if expected <= 1.0
                    else 1.0 + gain * (expected - 1.0))


class TestZeroTrafficEquivalence:
    """Feedback on, nothing observed => estimates identical to feedback off."""

    @pytest.mark.parametrize("variant", ["default", "multicore-isp",
                                         "cxl-pud"])
    def test_feature_vectors_bit_equal(self, variant):
        base = platform_variant(variant, base=tiny_platform_config())
        off = SSDPlatform(base)
        on = SSDPlatform(with_contention_feedback(base))
        instruction = make_instruction()
        features_off = collector_on(off).collect(instruction, 0.0, 0.0)
        features_on = collector_on(on).collect(instruction, 0.0, 0.0)
        assert features_on.candidates == features_off.candidates
        for resource in features_off.candidates:
            lhs = features_off.feature(resource)
            rhs = features_on.feature(resource)
            assert rhs.contention_delay_ns == 0.0
            assert (rhs.contended_data_movement_latency_ns ==
                    lhs.data_movement_latency_ns)
            for field in ("supported", "expected_compute_latency_ns",
                          "data_movement_latency_ns", "queueing_delay_ns",
                          "dependence_delay_ns"):
                assert getattr(rhs, field) == getattr(lhs, field), field

    def test_cost_estimates_and_selection_bit_equal(self):
        base = platform_variant("cxl-pud", base=tiny_platform_config())
        off = SSDPlatform(base)
        on = SSDPlatform(with_contention_feedback(base))
        instruction = make_instruction()
        features_off = collector_on(off).collect(instruction, 0.0, 0.0)
        features_on = collector_on(on).collect(instruction, 0.0, 0.0)
        target_off, estimates_off = CostFunction().select(features_off)
        target_on, estimates_on = CostFunction().select(features_on)
        assert target_on == target_off
        for resource in estimates_off:
            assert (estimates_on[resource].total_latency_ns ==
                    estimates_off[resource].total_latency_ns)

    def test_collection_latency_charges_the_feedback_read(self):
        # The only permitted difference under zero traffic: reading the
        # feedback table costs collection time (Section 4.5 style).
        base = tiny_platform_config()
        off = SSDPlatform(base)
        on = SSDPlatform(with_contention_feedback(base))
        instruction = make_instruction()
        features_off = collector_on(off).collect(instruction, 0.0, 0.0)
        features_on = collector_on(on).collect(instruction, 0.0, 0.0)
        assert (features_on.collection_latency_ns >
                features_off.collection_latency_ns)


class TestMonotonicity:
    """Estimates never decrease as observed path contention increases."""

    def test_movement_estimate_monotone_in_observed_overrun(self):
        base = with_contention_feedback(
            platform_variant("cxl-pud", base=tiny_platform_config()))
        instruction = make_instruction()
        previous = None
        for observed in (100.0, 200.0, 400.0, 800.0, 1600.0):
            platform = SSDPlatform(base)
            collector = collector_on(platform)
            # Inject host-path contention: one observed movement that took
            # `observed` ns against a 100 ns uncontended estimate.
            observe(platform,
                    next(r for r in platform.backends.offload_candidates()
                         if r.value == "cxl-pud"), 100.0, observed)
            features = collector.collect(instruction, 0.0, 0.0)
            host_backed = [features.feature(r)
                           for r in features.candidates
                           if platform.backends[r].home_location.value ==
                           "host"]
            assert host_backed, "cxl-pud roster must offer a host-home tier"
            estimate = sum(f.contended_data_movement_latency_ns
                           for f in host_backed)
            if previous is not None:
                assert estimate >= previous
            previous = estimate

    def test_total_cost_monotone_in_observed_overrun(self):
        base = with_contention_feedback(
            platform_variant("cxl-pud", base=tiny_platform_config()))
        instruction = make_instruction()
        cxl = None
        previous = None
        for observed in (1.0, 3.0, 9.0):
            platform = SSDPlatform(base)
            collector = collector_on(platform)
            cxl = next(r for r in platform.backends.offload_candidates()
                       if r.value == "cxl-pud")
            observe(platform, cxl, 1.0, observed)
            features = collector.collect(instruction, 0.0, 0.0)
            estimate = CostFunction().estimate(features.feature(cxl))
            if previous is not None:
                assert estimate.total_latency_ns >= previous
            previous = estimate.total_latency_ns

    def test_other_paths_unaffected_by_host_contention(self):
        # Contention observed on the host path must not inflate the
        # estimates of candidates that never cross it.
        base = with_contention_feedback(
            platform_variant("cxl-pud", base=tiny_platform_config()))
        instruction = make_instruction()
        quiet = SSDPlatform(base)
        features_quiet = collector_on(quiet).collect(instruction, 0.0, 0.0)
        noisy = SSDPlatform(base)
        collector = collector_on(noisy)
        cxl = next(r for r in noisy.backends.offload_candidates()
                   if r.value == "cxl-pud")
        observe(noisy, cxl, 100.0, 900.0)
        features_noisy = collector.collect(instruction, 0.0, 0.0)
        for resource in features_noisy.candidates:
            if noisy.backends[resource].home_location.value == "host":
                continue
            assert (features_noisy.feature(resource).data_movement_latency_ns
                    == features_quiet.feature(resource)
                    .data_movement_latency_ns)


class TestSingleCandidateInvariance:
    def test_feedback_never_changes_a_forced_selection(self):
        base = with_contention_feedback(tiny_platform_config())
        platform = SSDPlatform(base)
        collector = collector_on(platform)
        instruction = make_instruction()
        pud = next(r for r in platform.backends.offload_candidates()
                   if r.value == "pud-ssd")
        # Saturate the pud path's observed contention, then restrict the
        # candidate set to pud alone: the argmin has no alternative, so
        # the (huge) penalty must not change the selection.
        observe(platform, pud, 1.0, 1e9)
        features = collector.collect(instruction, 0.0, 0.0)
        features.per_resource = {pud: features.feature(pud)}
        target, estimates = CostFunction().select(features)
        assert target == pud
        assert list(estimates) == [pud]


class TestCacheKeyAndSweepIdentity:
    def test_contention_fields_fold_into_the_cache_key(self):
        config = ExperimentConfig(workload_scale=0.03,
                                  platform=tiny_platform_config())
        runner = ExperimentRunner(config)
        workload = Jacobi1DWorkload(scale=0.03)
        plain = runner.spec_for(workload, "Conduit")
        grown = with_contention_feedback(config.platform)
        spec = runner.spec_for(workload, "Conduit", platform=grown)
        assert run_spec_key(spec) != run_spec_key(plain)

    def test_feedback_on_sweep_serial_equals_parallel(self):
        # EWMA state lives on the per-run platform: a sharded sweep must
        # reproduce the serial grid bit-exactly (no feedback leakage
        # between runs or across pool workers).
        config = ExperimentConfig(workload_scale=0.03,
                                  platform=tiny_platform_config())
        platforms = ("default-feedback", "cxl-pud-feedback")
        policies = ("Conduit", "DM-Offloading")
        workloads = [Jacobi1DWorkload(scale=0.03)]
        serial = ExperimentRunner(config).sweep(policies, workloads,
                                                platforms=platforms)
        parallel = ExperimentRunner(config).sweep(policies, workloads,
                                                  platforms=platforms,
                                                  parallel=True, workers=2)
        assert list(serial) == list(parallel)
        for key, lhs in serial.items():
            rhs = parallel[key]
            assert lhs.total_time_ns == rhs.total_time_ns, key
            assert lhs.total_energy_nj == rhs.total_energy_nj, key
            assert len(lhs.records) == len(rhs.records), key
            for ours, theirs in zip(lhs.records, rhs.records):
                assert ours.resource is theirs.resource, key
                assert ours.end_ns == theirs.end_ns, key

    def test_back_to_back_feedback_runs_identical(self):
        # The monitor must start clean for every run.
        config = ExperimentConfig(
            workload_scale=0.05,
            platform=with_contention_feedback(tiny_platform_config()))
        runner = ExperimentRunner(config)
        workload = workload_by_name("XOR Filter", scale=0.05)
        first = runner.run(workload, "Conduit")
        second = runner.run(workload, "Conduit")
        assert first.total_time_ns == second.total_time_ns
        assert first.total_energy_nj == second.total_energy_nj


class TestCXLRegressionClosed:
    """The acceptance criterion: the documented LLM-Training failure mode."""

    @pytest.fixture(scope="class")
    def times(self):
        config = ExperimentConfig(workload_scale=REGRESSION_SCALE)
        runner = ExperimentRunner(config)
        grid = runner.sweep(
            ("Conduit", "CPU"),
            [workload_by_name("LLM Training", scale=REGRESSION_SCALE)],
            platforms=("cxl-pud", "cxl-pud-feedback"))
        return {
            "greedy": grid[("LLM Training", "Conduit",
                            "cxl-pud")].total_time_ns,
            "feedback": grid[("LLM Training", "Conduit",
                              "cxl-pud-feedback")].total_time_ns,
            "host": grid[("LLM Training", "CPU", "cxl-pud")].total_time_ns,
        }

    def test_feedback_no_worse_than_greedy(self, times):
        assert times["feedback"] <= times["greedy"]

    def test_feedback_no_worse_than_host_only(self, times):
        # The documented failure mode: the greedy cost model made the NDP
        # platform *lose* to simply running on the host.  With feedback it
        # must not.
        assert times["feedback"] <= times["host"]

    def test_the_greedy_regression_is_real(self, times):
        # Guard the guard: if the greedy model stops regressing (e.g. a
        # future modelling change), this test documents that the fixture
        # no longer exercises the failure mode and should be re-pointed.
        assert times["greedy"] > times["host"]


class TestContentionDecay:
    """The monitor never decays a path it does not observe."""

    def test_zero_decay_preserves_stale_penalty_forever(self):
        monitor = LinkContentionMonitor(alpha=1.0)
        monitor.observe_movement("flash->dram", 100.0, 500.0)
        for _ in range(50):
            monitor.observe_movement("flash->host", 100.0, 100.0)
        # The penalized path's average is untouched by other paths'
        # observations.
        assert monitor.overrun("flash->dram") == 5.0

    def test_platform_monitor_uses_the_default_alpha_and_gain(self):
        monitor = SSDPlatform(tiny_platform_config(
            contention_feedback=True)).contention
        assert (monitor.alpha, monitor.gain) == (0.3, 2.0)

    def test_feedback_off_builds_no_monitor(self):
        assert SSDPlatform(PlatformConfig()).contention is None
        assert SSDPlatform(
            tiny_platform_config()).maintenance_stats().contention_samples == 0


class TestFeedbackGoldens:
    @pytest.mark.parametrize("variant, policy", sorted(FEEDBACK_GOLDEN))
    def test_feedback_run_is_bit_exact(self, variant, policy):
        runner = ExperimentRunner(ExperimentConfig(
            workload_scale=0.1, platform=platform_variant(variant)))
        result = runner.run(workload_by_name("LLM Training", scale=0.1),
                            policy)
        time_ns, energy_nj = FEEDBACK_GOLDEN[(variant, policy)]
        assert result.total_time_ns == float.fromhex(time_ns)
        assert result.total_energy_nj == float.fromhex(energy_nj)
        assert result.maintenance.contention_samples > 0
