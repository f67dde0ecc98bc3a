"""Tests for the fleet-scale serving layer (the ``serve`` experiment).

Three layers, mirroring the layer split of :mod:`repro.serve`:

* unit behaviour of arrivals / tenants / fleet / SLO accounting;
* property-based determinism: Hypothesis-generated random tenant mixes,
  service models and fleet shapes must produce bit-identical SLO tables
  when re-simulated with the same seed (the satellite the ROADMAP's
  property-harness item reserved for workload *mixes*);
* the registered experiment end to end: serial == sharded bit-identical
  sections and headline, registry/CLI integration, platform-axis runs.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common import SimulationError
from repro.core.metrics import (ExecutionBreakdown, ExecutionResult,
                                InstructionRecord)
from repro.common import OpType, Resource
from repro.energy.model import EnergyBreakdown
from repro.experiments import EXPERIMENT_REGISTRY, ExperimentConfig
import repro.serve.fleet as serve_fleet
from repro.serve import (DEFAULT_TENANTS, FleetConfig, FleetSimulator,
                         MMPPArrivals, PoissonArrivals, ServiceModel,
                         TenantSpec, arrival_process, fleet_capacity_rps,
                         fleet_slo_row, fleet_workloads, generate_requests,
                         jain_fairness, latency_percentiles_ms,
                         mean_service_ns, run_serve,
                         simulate_modes, tenant_slos, validate_tenants)
from repro.workloads import ALL_WORKLOADS, WORKLOAD_REGISTRY

WORKLOAD_NAMES = sorted(WORKLOAD_REGISTRY)


# ------------------------------------------------------------------------
# Arrival processes
# ------------------------------------------------------------------------


class TestArrivals:
    def test_poisson_deterministic_and_sorted(self):
        times_a = PoissonArrivals().generate(random.Random("s"), 100.0, 5.0)
        times_b = PoissonArrivals().generate(random.Random("s"), 100.0, 5.0)
        assert times_a == times_b
        assert times_a == sorted(times_a)
        assert all(0.0 <= t < 5.0 for t in times_a)
        # ~500 expected arrivals; a 40% band is far beyond noise.
        assert 300 < len(times_a) < 700

    def test_mmpp_long_run_rate_matches_request(self):
        times = MMPPArrivals().generate(random.Random(7), 200.0, 20.0)
        assert times == sorted(times)
        assert all(0.0 <= t < 20.0 for t in times)
        # The calm rate is solved so the long-run average equals the
        # requested rate; 4000 expected arrivals, generous band.
        assert 2400 < len(times) < 5600

    def test_mmpp_is_burstier_than_poisson(self):
        """Index of dispersion of per-window counts: MMPP >> Poisson."""
        def dispersion(times, horizon, windows=40):
            counts = [0] * windows
            for t in times:
                counts[min(windows - 1, int(t / horizon * windows))] += 1
            mean = sum(counts) / windows
            var = sum((c - mean) ** 2 for c in counts) / windows
            return var / mean if mean else 0.0

        horizon, rate = 20.0, 300.0
        poisson = PoissonArrivals().generate(random.Random(3), rate, horizon)
        mmpp = MMPPArrivals().generate(random.Random(3), rate, horizon)
        assert dispersion(mmpp, horizon) > 2.0 * dispersion(poisson, horizon)

    def test_invalid_parameters_fail_loudly(self):
        with pytest.raises(SimulationError):
            PoissonArrivals().generate(random.Random(0), -1.0, 1.0)
        with pytest.raises(SimulationError):
            PoissonArrivals().generate(random.Random(0), 1.0, 0.0)
        with pytest.raises(SimulationError):
            MMPPArrivals(burst_fraction=1.5)
        with pytest.raises(SimulationError):
            MMPPArrivals(burst_multiplier=0.5)
        with pytest.raises(ValueError, match="unknown arrival process"):
            arrival_process("diurnal")


# ------------------------------------------------------------------------
# Tenants
# ------------------------------------------------------------------------


class TestTenants:
    def test_unknown_workload_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown workload"):
            TenantSpec(name="t", mix=(("No Such Kernel", 1.0),))

    def test_bad_weights_share_and_arrival_rejected(self):
        with pytest.raises(ValueError, match="non-positive weight"):
            TenantSpec(name="t", mix=(("AES", 0.0),))
        with pytest.raises(ValueError, match="non-positive share"):
            TenantSpec(name="t", mix=(("AES", 1.0),), share=0.0)
        with pytest.raises(ValueError, match="unknown arrival process"):
            TenantSpec(name="t", mix=(("AES", 1.0),), arrival="nope")

    def test_non_finite_weight_and_share_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite weight"):
                TenantSpec(name="t", mix=(("AES", 1.0), ("heat-3d", bad)))
            with pytest.raises(ValueError, match="non-finite share"):
                TenantSpec(name="t", mix=(("AES", 1.0),), share=bad)

    def test_cumulative_mix_ends_at_one_in_mix_order(self):
        tenant = TenantSpec(name="t", mix=(("AES", 1.0), ("heat-3d", 3.0)))
        assert [name for _, name in tenant.cumulative_mix] == [
            "AES", "heat-3d"]
        assert tenant.cumulative_mix[0][0] == 0.25
        assert tenant.cumulative_mix[-1][0] == pytest.approx(1.0)

    def test_population_validation(self):
        tenant = TenantSpec(name="t", mix=(("AES", 1.0),), share=0.5)
        with pytest.raises(ValueError, match="must sum to 1.0"):
            validate_tenants((tenant,))
        with pytest.raises(ValueError, match="duplicate tenant names"):
            validate_tenants((tenant, tenant))
        with pytest.raises(ValueError, match="must not be empty"):
            validate_tenants(())

    def test_default_population_is_valid_and_covers_all_six(self):
        # The registry is open (trace/zipf workloads join at import time),
        # so the default mixes pin the six hand-built kernels, not the
        # whole registry.
        assert validate_tenants(DEFAULT_TENANTS) == DEFAULT_TENANTS
        kernel_names = sorted(workload.name for workload in ALL_WORKLOADS)
        assert sorted(fleet_workloads(DEFAULT_TENANTS)) == kernel_names
        assert set(kernel_names) <= set(WORKLOAD_NAMES)

    def test_sample_workload_stays_inside_the_mix(self):
        tenant = TenantSpec(name="t", mix=(("AES", 1.0), ("heat-3d", 3.0)))
        rng = random.Random(11)
        draws = {tenant.sample_workload(rng) for _ in range(200)}
        assert draws == {"AES", "heat-3d"}

    def test_normalized_mix_sums_to_one(self):
        tenant = TenantSpec(name="t", mix=(("AES", 2.0), ("heat-3d", 6.0)))
        normalized = dict(tenant.normalized_mix())
        assert normalized["heat-3d"] == pytest.approx(0.75)
        assert sum(normalized.values()) == pytest.approx(1.0)


# ------------------------------------------------------------------------
# Fleet simulation
# ------------------------------------------------------------------------


def _population(*specs) -> tuple:
    return validate_tenants(specs)


SINGLE_TENANT = _population(
    TenantSpec(name="only", mix=(("AES", 1.0),), share=1.0))

TWO_TENANTS = _population(
    TenantSpec(name="a", mix=(("AES", 1.0),), share=0.5),
    TenantSpec(name="b", mix=(("XOR Filter", 1.0),), arrival="mmpp",
               share=0.5))

MODELS = {name: ServiceModel(base_ns=float(1_000_000 + 250_000 * index),
                             tail_ratio=1.0 + 0.5 * index)
          for index, name in enumerate(WORKLOAD_NAMES)}


class TestFleetSimulator:
    def test_missing_service_model_fails_loudly(self):
        with pytest.raises(SimulationError, match="no service model"):
            config = FleetConfig(requests=10)
            FleetSimulator(config).simulate(
                SINGLE_TENANT, {}, offered_rps=100.0,
                requests=generate_requests(SINGLE_TENANT, 100.0, config))

    def test_accounting_is_conserved(self):
        config = FleetConfig(devices=2, requests=200, seed=5)
        outcome = FleetSimulator(config).simulate(
            TWO_TENANTS, MODELS, offered_rps=500.0,
            requests=generate_requests(TWO_TENANTS, 500.0, config))
        for tenant in outcome.tenants.values():
            assert tenant.admitted == len(tenant.latencies_ns)
            assert tenant.offered == tenant.admitted + tenant.rejected
        assert sum(outcome.per_device_served) == outcome.admitted
        assert outcome.admitted + outcome.rejected > 0

    def test_same_seed_is_bit_identical(self):
        config = FleetConfig(devices=3, requests=150, seed=99)
        run = lambda: FleetSimulator(config).simulate(  # noqa: E731
            TWO_TENANTS, MODELS, offered_rps=800.0,
            requests=generate_requests(TWO_TENANTS, 800.0, config))
        assert run() == run()

    def test_overload_sheds_instead_of_queueing_unboundedly(self):
        config = FleetConfig(devices=1, requests=300, seed=1,
                             admission_wait_factor=2.0)
        capacity = fleet_capacity_rps(SINGLE_TENANT, MODELS, config)
        outcome = FleetSimulator(config).simulate(
            SINGLE_TENANT, MODELS, offered_rps=3.0 * capacity,
            requests=generate_requests(SINGLE_TENANT, 3.0 * capacity,
                                       config))
        assert outcome.rejected > 0
        budget = 2.0 * mean_service_ns(SINGLE_TENANT, MODELS, config)
        max_service = MODELS["AES"].base_ns * 1.1 * MODELS["AES"].tail_ratio
        assert max(outcome.all_latencies_ns()) <= budget + max_service

    def test_rising_load_raises_tail_latency(self):
        config = FleetConfig(devices=2, requests=400, seed=3)
        capacity = fleet_capacity_rps(TWO_TENANTS, MODELS, config)
        simulator = FleetSimulator(config)
        p99 = []
        for load in (0.3, 0.95):
            outcome = simulator.simulate(
                TWO_TENANTS, MODELS, offered_rps=load * capacity,
                requests=generate_requests(TWO_TENANTS, load * capacity,
                                           config))
            p99.append(fleet_slo_row(outcome)["p99_ms"])
        assert p99[1] > p99[0]

    def test_tenant_streams_are_independent(self):
        """Adding a tenant must not perturb another tenant's requests."""
        config = FleetConfig(seed=21, requests=100)
        solo = [r for r in generate_requests(SINGLE_TENANT, 200.0, config)
                if r.tenant == "only"]
        shared = _population(
            TenantSpec(name="only", mix=(("AES", 1.0),), share=0.5),
            TenantSpec(name="noise", mix=(("heat-3d", 1.0),), share=0.5))
        # Same per-tenant rate (200 * 1.0 == 400 * 0.5) and same horizon
        # => the "only" stream must be untouched by the new neighbour.
        config_shared = FleetConfig(seed=21, requests=200)
        both = [r for r in generate_requests(shared, 400.0, config_shared)
                if r.tenant == "only"]
        assert solo == both

    def test_bad_load_ladders_rejected(self):
        with pytest.raises(SimulationError, match="load_points must not "
                                                  "repeat"):
            FleetConfig(load_points=(0.5, 0.5))
        for bad in (math.nan, math.inf, -math.inf, 0.0, -0.5):
            with pytest.raises(SimulationError, match="load_points"):
                FleetConfig(load_points=(0.3, bad))

    def test_nan_admission_wait_factor_rejected(self):
        # NaN would disable shedding: ``wait > nan`` is never true.
        with pytest.raises(SimulationError, match="admission_wait_factor"):
            FleetConfig(admission_wait_factor=math.nan)

    @given(bad=st.sampled_from([math.nan, math.inf, -math.inf]),
           field_name=st.sampled_from(["load_points",
                                       "admission_wait_factor", "share",
                                       "weight"]))
    @settings(max_examples=30, deadline=None)
    def test_non_finite_floats_fail_naming_the_field(self, bad, field_name):
        if field_name == "load_points":
            build = lambda: FleetConfig(load_points=(bad,))  # noqa: E731
        elif field_name == "admission_wait_factor":
            build = lambda: FleetConfig(  # noqa: E731
                admission_wait_factor=bad)
        elif field_name == "share":
            build = lambda: TenantSpec(  # noqa: E731
                name="t", mix=(("AES", 1.0),), share=bad)
        else:
            build = lambda: TenantSpec(  # noqa: E731
                name="t", mix=(("AES", bad),))
        with pytest.raises((SimulationError, ValueError), match=field_name):
            build()

    def test_service_model_validation(self):
        with pytest.raises(SimulationError):
            ServiceModel(base_ns=0.0)
        with pytest.raises(SimulationError):
            ServiceModel(base_ns=1.0, tail_ratio=0.5)

    def test_service_model_calibration_from_execution_result(self):
        records = [
            InstructionRecord(uid=i, op=OpType.ADD, resource=Resource.ISP,
                              dispatch_ns=0.0, ready_ns=0.0, start_ns=0.0,
                              end_ns=latency, compute_ns=latency,
                              data_movement_ns=0.0, overhead_ns=0.0)
            for i, latency in enumerate([100.0] * 99 + [1000.0])]
        result = ExecutionResult(
            workload="w", policy="p", total_time_ns=5e6, records=records,
            energy=EnergyBreakdown(compute_nj=1.0, data_movement_nj=1.0,
                                   per_resource_nj={}, per_transfer_kind_nj={}),
            breakdown=ExecutionBreakdown())
        model = ServiceModel.from_result(result)
        assert model.base_ns == 5e6
        assert model.tail_ratio > 1.0  # p99/mean of the tail-heavy sample


# ------------------------------------------------------------------------
# SLO accounting
# ------------------------------------------------------------------------


class TestSLO:
    def test_jain_fairness_bounds(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0.0, 0.0]) == 1.0
        assert jain_fairness([3.0, 3.0, 3.0]) == pytest.approx(1.0)
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    @given(sample=st.lists(st.floats(min_value=0.0, max_value=1e10,
                                     allow_nan=False),
                           min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_percentiles_equal_one_call_per_percentile(self, sample):
        array = np.asarray(sample, dtype=float)
        assert latency_percentiles_ms(sample) == tuple(
            float(np.percentile(array, q)) / 1e6 for q in (50.0, 99.0, 99.9))

    def test_percentiles_of_an_empty_sample_are_zero(self):
        assert latency_percentiles_ms([]) == (0.0, 0.0, 0.0)

    def test_tenant_slos_cover_every_tenant(self):
        config = FleetConfig(devices=2, requests=150, seed=8)
        outcome = FleetSimulator(config).simulate(
            TWO_TENANTS, MODELS, offered_rps=300.0,
            requests=generate_requests(TWO_TENANTS, 300.0, config))
        slos = tenant_slos(outcome)
        assert [slo.tenant for slo in slos] == ["a", "b"]
        for slo in slos:
            assert slo.p50_ms <= slo.p99_ms <= slo.p999_ms
            assert 0.0 <= slo.satisfaction <= 1.0 + 1e-9

    def test_fleet_row_throughput_identity(self):
        config = FleetConfig(devices=2, requests=150, seed=8)
        outcome = FleetSimulator(config).simulate(
            TWO_TENANTS, MODELS, offered_rps=300.0,
            requests=generate_requests(TWO_TENANTS, 300.0, config))
        row = fleet_slo_row(outcome)
        assert row["achieved_rps"] == pytest.approx(
            outcome.admitted / outcome.horizon_s)
        assert row["achieved_rps"] <= row["offered_rps"] + 1e-9
        assert 0.0 < row["fairness"] <= 1.0 + 1e-9


# ------------------------------------------------------------------------
# Property: random tenant mixes are deterministic under a seed
# ------------------------------------------------------------------------


@st.composite
def populations(draw):
    """Random multi-tenant populations over the workload registry."""
    count = draw(st.integers(min_value=1, max_value=3))
    raw_shares = draw(st.lists(
        st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
        min_size=count, max_size=count))
    total = sum(raw_shares)
    tenants = []
    for index in range(count):
        names = draw(st.lists(st.sampled_from(WORKLOAD_NAMES),
                              unique=True, min_size=1, max_size=3))
        weights = draw(st.lists(
            st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
            min_size=len(names), max_size=len(names)))
        tenants.append(TenantSpec(
            name=f"tenant-{index}",
            mix=tuple(zip(names, weights)),
            arrival=draw(st.sampled_from(["poisson", "mmpp"])),
            share=raw_shares[index] / total))
    return validate_tenants(tenants)


@st.composite
def service_models(draw):
    return {name: ServiceModel(
        base_ns=draw(st.floats(min_value=1e5, max_value=5e7,
                               allow_nan=False)),
        tail_ratio=draw(st.floats(min_value=1.0, max_value=20.0,
                                  allow_nan=False)))
        for name in WORKLOAD_NAMES}


class TestRandomMixesProperty:
    @given(tenants=populations(), models=service_models(),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           devices=st.integers(min_value=1, max_value=4),
           load=st.sampled_from([0.4, 0.9, 1.2]))
    @settings(max_examples=20, deadline=None)
    def test_same_seed_bit_identical_slo_tables(self, tenants, models,
                                                seed, devices, load):
        config = FleetConfig(devices=devices, seed=seed, requests=120,
                             load_points=(load,))
        capacity = fleet_capacity_rps(tenants, models, config)

        def tables():
            outcome = FleetSimulator(config).simulate(
                tenants, models, offered_rps=load * capacity,
                requests=generate_requests(tenants, load * capacity,
                                           config))
            return fleet_slo_row(outcome), tenant_slos(outcome), outcome

        row_a, slos_a, outcome_a = tables()
        row_b, slos_b, outcome_b = tables()
        assert row_a == row_b
        assert slos_a == slos_b
        assert outcome_a == outcome_b

    @given(tenants=populations(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_request_generation_deterministic_and_ordered(self, tenants,
                                                          seed):
        config = FleetConfig(seed=seed, requests=80)
        stream_a = generate_requests(tenants, 500.0, config)
        stream_b = generate_requests(tenants, 500.0, config)
        assert stream_a == stream_b
        times = [request.time_s for request in stream_a]
        assert times == sorted(times)
        for request in stream_a:
            assert 0.9 <= request.jitter <= 1.1


# ------------------------------------------------------------------------
# The registered experiment, end to end
# ------------------------------------------------------------------------

#: Tiny scale keeping the 12-pair calibration sweep fast.
SERVE_SCALE = 0.05


@pytest.fixture(scope="module")
def serve_results():
    """One serial and one sharded run of the full serve experiment."""
    config = ExperimentConfig(workload_scale=SERVE_SCALE)
    serial = run_serve(config, parallel=False, cache_dir=None)
    sharded = run_serve(config, parallel=True, workers=2, cache_dir=None)
    return serial, sharded


class TestServeExperiment:
    def test_registered_in_the_experiment_registry(self):
        assert "serve" in EXPERIMENT_REGISTRY
        definition = EXPERIMENT_REGISTRY["serve"]
        assert definition.policies == ("CPU", "Conduit")
        assert "6 workloads x 2 policies" in definition.axes_summary()

    def test_emits_load_vs_p99_curve_for_both_fleets(self, serve_results):
        serial, _ = serve_results
        rows = serial.sections["serve"]
        fleets = {row["fleet"] for row in rows}
        assert fleets == {"host-only", "offloaded"}
        loads = [row["load"] for row in rows if row["fleet"] == "host-only"]
        assert loads == sorted(loads) and len(loads) >= 4
        for row in rows:
            assert row["p50_ms"] <= row["p99_ms"] <= row["p999_ms"]
            assert row["achieved_rps"] <= row["offered_rps"] + 1e-9

    def test_tenant_section_covers_population_in_both_fleets(
            self, serve_results):
        serial, _ = serve_results
        rows = serial.sections["serve-tenants"]
        expected = {(mode, tenant.name)
                    for mode in ("host-only", "offloaded")
                    for tenant in DEFAULT_TENANTS}
        assert {(row["fleet"], row["tenant"]) for row in rows} == expected

    def test_serial_equals_sharded_bit_identically(self, serve_results):
        serial, sharded = serve_results
        assert serial.sections == sharded.sections
        assert serial.headline == sharded.headline

    def test_same_seed_rerun_is_bit_identical(self, serve_results):
        serial, _ = serve_results
        again = run_serve(ExperimentConfig(workload_scale=SERVE_SCALE),
                          parallel=False, cache_dir=None)
        assert again.sections == serial.sections
        assert again.headline == serial.headline

    def test_headline_names_both_fleets(self, serve_results):
        serial, _ = serve_results
        assert len(serial.headline) == 1
        assert "host-only" in serial.headline[0]
        assert "offloaded" in serial.headline[0]

    def test_custom_fleet_and_tenants(self):
        tenants = _population(
            TenantSpec(name="solo", mix=(("AES", 1.0),), share=1.0))
        fleet = FleetConfig(devices=2, requests=100, seed=4,
                            load_points=(0.5, 0.9))
        result = run_serve(ExperimentConfig(workload_scale=SERVE_SCALE),
                           fleet=fleet, tenants=tenants, parallel=False,
                           cache_dir=None)
        rows = result.sections["serve"]
        assert {row["load"] for row in rows} == {0.5, 0.9}
        # The narrowed calibration sweep covers exactly the mixed workload.
        assert {workload for workload, _, _ in result.grid} == {"AES"}

    def test_simulate_modes_shares_the_offered_ladder(self, serve_results):
        serial, _ = serve_results
        grid = serial.platform_grid("default")
        outcomes = simulate_modes(grid, FleetConfig(requests=60),
                                  DEFAULT_TENANTS)
        host = outcomes["host-only"]
        offloaded = outcomes["offloaded"]
        assert list(host) == list(offloaded)  # same load rungs
        for load in host:
            assert host[load].offered_rps == offloaded[load].offered_rps

    def test_one_run_simulates_each_fleet_rung_once(self, monkeypatch):
        """Both fleets share each rung's stream; the headline re-uses the
        built table instead of simulating again."""
        calls = {"generate_requests": 0, "simulate": 0}
        generate = serve_fleet.generate_requests
        simulate = FleetSimulator.simulate

        def counting_generate(*args, **kwargs):
            calls["generate_requests"] += 1
            return generate(*args, **kwargs)

        def counting_simulate(self, *args, **kwargs):
            calls["simulate"] += 1
            return simulate(self, *args, **kwargs)

        monkeypatch.setattr(serve_fleet, "generate_requests",
                            counting_generate)
        monkeypatch.setattr(FleetSimulator, "simulate", counting_simulate)
        result = run_serve(ExperimentConfig(workload_scale=SERVE_SCALE),
                           parallel=False, cache_dir=None)
        rungs = len(FleetConfig().load_points)
        assert rungs == 6
        assert calls == {"generate_requests": rungs, "simulate": 2 * rungs}
        assert len(result.headline) == 1


# ------------------------------------------------------------------------
# Pinned outputs: the serve layer's streams and outcomes are frozen
# ------------------------------------------------------------------------

#: A population whose tenants mix several workloads with uneven weights,
#: so the pins cover the cumulative-mix draw, not only one-workload mixes.
MIXED_TENANTS = _population(
    TenantSpec(name="i", mix=(("AES", 3.0), ("heat-3d", 1.0),
                              ("jacobi-1d", 0.7)), share=0.6),
    TenantSpec(name="j", mix=(("XOR Filter", 1.0), ("LLM Training", 2.5)),
               arrival="mmpp", share=0.4))


def _digest(value) -> str:
    """Short stable digest of a value's ``repr`` (floats repr exactly)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _stream_key(requests) -> tuple:
    return tuple((request.time_s, request.tenant, request.workload,
                  request.jitter, request.tail) for request in requests)


def _outcome_key(outcome) -> tuple:
    return (outcome.offered_rps, outcome.horizon_s,
            tuple(outcome.per_device_served),
            tuple((tenant.tenant, tenant.arrival,
                   tuple(tenant.latencies_ns), tenant.admitted,
                   tenant.rejected)
                  for tenant in outcome.tenants.values()))


class _CalibrationStub:
    """The three ExecutionResult readings ServiceModel.from_result uses,
    fixed, so simulator-core changes cannot move the pins below."""

    def __init__(self, total_ns: float, mean_ns: float, p99_ns: float):
        self.total_time_ns = total_ns
        self.p99_latency_ns = p99_ns
        self._mean_ns = mean_ns

    def mean_latency_ns(self) -> float:
        return self._mean_ns


def _synthetic_grid() -> dict:
    grid = {}
    for index, name in enumerate(WORKLOAD_NAMES):
        grid[(name, "CPU")] = _CalibrationStub(
            2e6 + 3e5 * index, 1000.0, 1000.0 * (1.5 + 0.25 * index))
        grid[(name, "Conduit")] = _CalibrationStub(
            1.2e6 + 1e5 * index, 800.0, 800.0 * (2.0 + 0.1 * index))
    return grid


def _simulate(config, tenants, offered_rps):
    return FleetSimulator(config).simulate(
        tenants, MODELS, offered_rps,
        generate_requests(tenants, offered_rps, config))


class TestPinnedServeLayer:
    """Digests of request streams, fleet outcomes and a mode ladder.

    The inputs are synthetic, so only a change to the serve layer's own
    draws, ordering, placement or admission can move them; a change meant
    to leave simulated results alone must leave every digest unchanged.
    """

    STREAM = FleetConfig(seed=17, requests=400)
    #: A tight admission budget, so shedding is part of what is pinned.
    SHEDDING = FleetConfig(devices=3, requests=500, seed=5,
                           admission_wait_factor=3.0)

    def test_request_streams(self):
        assert _digest(_stream_key(generate_requests(
            TWO_TENANTS, 500.0, self.STREAM))) == "1b5d9f1244d9ca88"
        assert _digest(_stream_key(generate_requests(
            MIXED_TENANTS, 700.0, self.STREAM))) == "4179990e91d672e3"

    def test_fleet_outcomes(self):
        two = _simulate(self.SHEDDING, TWO_TENANTS, 2500.0)
        mixed = _simulate(self.SHEDDING, MIXED_TENANTS, 1800.0)
        assert two.rejected > 0 and mixed.rejected > 0
        assert _digest(_outcome_key(two)) == "184ac1b0c972d393"
        assert _digest(_outcome_key(mixed)) == "7bfc75ef06d0d3ad"

    def test_simulate_modes_on_a_synthetic_grid(self):
        outcomes = simulate_modes(_synthetic_grid(),
                                  FleetConfig(devices=4, requests=300,
                                              seed=11),
                                  MIXED_TENANTS)
        assert _digest(tuple(
            (mode, tuple((load, _outcome_key(outcome))
                         for load, outcome in by_load.items()))
            for mode, by_load in outcomes.items())) == "fde8bafd243cfade"
