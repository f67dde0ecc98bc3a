"""Golden-equivalence tests for the run-batched data-movement engine.

The run-batched engine (:meth:`repro.core.platform.SSDPlatform.ensure_runs_at`
and friends) must reproduce the per-page reference path *exactly*: one sized
bus reservation for a run segment occupies a shared bus the same way as
back-to-back per-page transfers on the same server, and segments whose
window insertion would evict fall back to the interleaved per-page path.

Three layers of protection:

* ``GOLDEN`` pins results recorded from the seed's per-page implementation
  (workload scale 0.25, the experiment platform config).  The per-page
  reference path must keep reproducing them, which guards against silent
  drift of the reference itself.
* Every golden scenario also runs through the batched path and must match
  the per-page path on total time, energy breakdown and every
  data-movement counter, within float tolerance.
* Hypothesis-generated synthetic instruction streams, whose arrival
  patterns are not constrained to anything a registered workload emits,
  must produce *bit-identical* :class:`ExecutionResult` trees on both
  paths.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import KIB, MIB, DataLocation, OpType, Resource
from repro.core.compiler.ir import (ArrayRef, ArraySpec, VectorInstruction,
                                    VectorProgram)
from repro.core.offload.policies import make_policy
from repro.core.platform import PlatformConfig, SSDPlatform
from repro.core.runtime import ConduitRuntime, HostRuntime, RuntimeConfig
from repro.experiments import ExperimentConfig, experiment_platform_config
from repro.experiments.runner import RunSpec, run_spec_key
from repro.ssd.config import small_ssd_config
from repro.workloads import default_workloads

#: Workload scale the golden values were recorded at (seed, per-page path).
GOLDEN_SCALE = 0.25

#: Values recorded from the seed implementation before the run-batched
#: engine existed.  Keys: "<workload>|<policy>".  The LLM-Training/Conduit
#: scenario exercises the capacity-pressure regime (window evictions and
#: dirty write-backs); the CPU scenario exercises the host/PCIe path.
GOLDEN = {
    "LLM Training|Conduit": {
        "total_time_ns": 12600733.53912111,
        "compute_nj": 439649091.3989966,
        "data_movement_nj": 35219636.0,
        "host_dm_ns": 0.0,
        "internal_dm_ns": 27032590.488746822,
        "flash_read_ns": 431652839.7575014,
        "n_records": 1038,
        "flash_to_dram_pages": 499,
        "writeback_pages": 307,
        "host_pages": 0,
        "dram_evictions": 371,
        "coherence_flushes": 704,
        "l2p_lookups": 806,
    },
    "AES|Conduit": {
        "total_time_ns": 1084623.672025724,
        "compute_nj": 36335979.5448489,
        "data_movement_nj": 733344.0,
        "n_records": 680,
        "flash_to_dram_pages": 24,
        "coherence_flushes": 8,
    },
    "LlaMA2 Inference|DM-Offloading": {
        "total_time_ns": 2257453.069667737,
        "n_records": 517,
        "flash_to_dram_pages": 16,
    },
    "heat-3d|CPU": {
        "total_time_ns": 1607471.3333333335,
        "host_dm_ns": 756821.3333333335,
        "host_pages": 16,
        "n_records": 321,
    },
    "jacobi-1d|PuD-SSD": {
        "total_time_ns": 2242715.423365487,
        "n_records": 289,
        "flash_to_dram_pages": 32,
    },
}

REL_TOL = 1e-9


@pytest.fixture(scope="module")
def programs():
    # The platform comes from the shared experiment_platform_config()
    # default, the same single source the figure harnesses and benchmarks
    # use; the golden values below are pinned against that configuration.
    config = ExperimentConfig(workload_scale=GOLDEN_SCALE)
    built = {}
    for workload in default_workloads(scale=GOLDEN_SCALE):
        built[workload.name] = workload.vector_program()[0]
    return config, built


def run_scenario(config: ExperimentConfig, program, policy_name: str,
                 batched: bool):
    platform = SSDPlatform(replace(config.platform,
                                   batched_movement=batched))
    if policy_name == "CPU":
        result = HostRuntime(platform, config.runtime).execute(
            program, Resource.HOST_CPU)
    else:
        result = ConduitRuntime(platform, config.runtime).execute(
            program, make_policy(policy_name))
    movement = platform.movement
    return {
        "total_time_ns": result.total_time_ns,
        "compute_nj": result.energy.compute_nj,
        "data_movement_nj": result.energy.data_movement_nj,
        "host_dm_ns": result.breakdown.host_data_movement_ns,
        "internal_dm_ns": result.breakdown.internal_data_movement_ns,
        "flash_read_ns": result.breakdown.flash_read_ns,
        "n_records": len(result.records),
        "flash_to_dram_pages": movement.flash_to_dram_pages,
        "flash_to_sram_pages": movement.flash_to_sram_pages,
        "dram_to_sram_pages": movement.dram_to_sram_pages,
        "sram_to_dram_pages": movement.sram_to_dram_pages,
        "writeback_pages": movement.writeback_pages,
        "host_pages": movement.host_pages,
        "internal_latency_ns": movement.internal_latency_ns,
        "host_latency_ns": movement.host_latency_ns,
        "dram_evictions": platform._dram_window.evictions,
        "sram_evictions": platform._sram_window.evictions,
        "host_evictions": platform._host_window.evictions,
        "coherence_flushes": platform.coherence.flushes,
        "tracked_pages": platform.coherence.tracked_pages(),
        "l2p_lookups": platform.ssd.ftl.stats.lookups,
        "l2p_hits": platform.ssd.ftl.stats.cache_hits,
    }


def assert_close(label: str, field: str, got, expected) -> None:
    assert math.isclose(got, expected, rel_tol=REL_TOL, abs_tol=1e-6), (
        f"{label}: {field} diverged: got {got!r}, expected {expected!r}")


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
class TestGoldenEquivalence:
    def test_per_page_reference_matches_seed(self, programs, scenario):
        """The per-page reference path still reproduces the seed's numbers."""
        config, built = programs
        workload, policy = scenario.split("|")
        observed = run_scenario(config, built[workload], policy,
                                batched=False)
        for field, expected in GOLDEN[scenario].items():
            assert_close(f"per-page {scenario}", field, observed[field],
                         expected)

    def test_batched_matches_per_page(self, programs, scenario):
        """Run-batched execution is equivalent to per-page execution."""
        config, built = programs
        workload, policy = scenario.split("|")
        per_page = run_scenario(config, built[workload], policy,
                                batched=False)
        batched = run_scenario(config, built[workload], policy, batched=True)
        for field, expected in per_page.items():
            assert_close(f"batched {scenario}", field, batched[field],
                         expected)
        for field, expected in GOLDEN[scenario].items():
            assert_close(f"batched-vs-golden {scenario}", field,
                         batched[field], expected)

    def test_batched_matches_per_page_with_contention_feedback(self,
                                                               programs,
                                                               scenario):
        """The movement-engine equivalence is independent of the cost
        model: with ``contention_feedback=True`` decisions may differ from
        the goldens, but batched and per-page execution of the same
        scenario must still agree on every timing, energy and movement
        counter (the feedback observes movement produced identically by
        both paths)."""
        config, built = programs
        workload, policy = scenario.split("|")
        feedback = ExperimentConfig(
            workload_scale=GOLDEN_SCALE,
            platform=replace(config.platform, contention_feedback=True))
        per_page = run_scenario(feedback, built[workload], policy,
                                batched=False)
        batched = run_scenario(feedback, built[workload], policy,
                               batched=True)
        for field, expected in per_page.items():
            assert_close(f"batched+feedback {scenario}", field,
                         batched[field], expected)


class TestRunPrimitives:
    """Direct unit checks of the batched movement primitives."""

    def make_platform(self, batched: bool) -> SSDPlatform:
        return SSDPlatform(replace(experiment_platform_config(),
                                   batched_movement=batched))

    def test_ensure_runs_at_equals_ensure_pages_at(self):
        batched = self.make_platform(True)
        reference = self.make_platform(False)
        lpas = list(range(0, 48))
        for platform in (batched, reference):
            platform.setup_dataset(lpas)
        end_batched = batched.ensure_runs_at(0.0, [(0, 48)],
                                             DataLocation.SSD_DRAM)
        end_reference = reference.ensure_pages_at(0.0, lpas,
                                                  DataLocation.SSD_DRAM)
        assert math.isclose(end_batched, end_reference, rel_tol=REL_TOL)
        assert (batched.movement.flash_to_dram_pages ==
                reference.movement.flash_to_dram_pages == 48)
        assert math.isclose(batched.movement.internal_latency_ns,
                            reference.movement.internal_latency_ns,
                            rel_tol=REL_TOL)
        for lpa in lpas:
            assert batched.location_of(lpa) is DataLocation.SSD_DRAM

    def test_resident_run_only_refreshes_lru(self):
        platform = self.make_platform(True)
        platform.setup_dataset(range(16))
        first = platform.ensure_runs_at(0.0, [(0, 16)],
                                        DataLocation.SSD_DRAM)
        again = platform.ensure_runs_at(first, [(0, 16)],
                                        DataLocation.SSD_DRAM)
        assert again == first
        assert platform.movement.flash_to_dram_pages == 16

    def test_mixed_residence_run_splits_into_segments(self):
        platform = self.make_platform(True)
        platform.setup_dataset(range(32))
        platform.ensure_runs_at(0.0, [(8, 8)], DataLocation.SSD_DRAM)
        moved_before = platform.movement.flash_to_dram_pages
        platform.ensure_runs_at(1e6, [(0, 32)], DataLocation.SSD_DRAM)
        # Only the 24 pages still on flash move; the resident middle
        # segment refreshes its LRU position.
        assert platform.movement.flash_to_dram_pages == moved_before + 24

    def test_eviction_pressure_falls_back_and_matches(self):
        """Runs larger than the window stay equivalent to per-page moves."""
        small = replace(experiment_platform_config(),
                        dram_compute_window_bytes=8 * 4096)
        results = []
        for batched in (True, False):
            platform = SSDPlatform(replace(small,
                                           batched_movement=batched))
            window_pages = platform._dram_window.capacity_pages
            total = window_pages * 3
            platform.setup_dataset(range(total))
            end = platform.ensure_runs_at(0.0, [(0, total)],
                                          DataLocation.SSD_DRAM)
            results.append((end, platform.movement.flash_to_dram_pages,
                            platform._dram_window.evictions))
        assert math.isclose(results[0][0], results[1][0], rel_tol=REL_TOL)
        assert results[0][1:] == results[1][1:]
        assert results[0][2] > 0

    def test_mark_produced_run_matches_mark_produced(self):
        batched = self.make_platform(True)
        reference = self.make_platform(False)
        for platform in (batched, reference):
            platform.setup_dataset(range(24))
        batched.mark_produced_run(10.0, [(4, 12)], DataLocation.CTRL_SRAM)
        reference.mark_produced(10.0, range(4, 16), DataLocation.CTRL_SRAM)
        for lpa in range(4, 16):
            assert (batched.location_of(lpa) is reference.location_of(lpa)
                    is DataLocation.CTRL_SRAM)
        assert len(batched._sram_window) == len(reference._sram_window)


#: Enum members are sorted before ``sampled_from`` so the Hypothesis
#: database keys are stable across interpreter runs (set iteration order
#: would shuffle them).
PROGRAM_OPS = sorted((OpType.ADD, OpType.MUL, OpType.XOR, OpType.AND),
                     key=lambda op: op.value)


def _assert_bit_equal(a, b):
    """Every field of the two execution results must match exactly."""
    assert a.total_time_ns == b.total_time_ns
    assert a.total_energy_nj == b.total_energy_nj
    assert a.energy == b.energy
    assert a.breakdown == b.breakdown
    assert a.records == b.records
    assert a.offload_overhead_avg_ns == b.offload_overhead_avg_ns
    assert a.offload_overhead_max_ns == b.offload_overhead_max_ns


def _small_config(**overrides) -> PlatformConfig:
    return PlatformConfig(ssd=small_ssd_config(),
                          dram_compute_window_bytes=1 * MIB,
                          sram_window_bytes=256 * KIB,
                          host_cache_bytes=1 * MIB, **overrides)


#: One synthetic instruction: (op index, dest slot, source slots, chain).
#: Slots address 4096-element regions of two declared 64 Ki-element
#: arrays, so random streams trigger real window pressure and coherence
#: ping-pong on the small platform above.
INSTRUCTION = st.tuples(
    st.integers(min_value=0, max_value=len(PROGRAM_OPS) - 1),
    st.integers(min_value=0, max_value=2 * 12 - 1),
    st.lists(st.integers(min_value=0, max_value=2 * 12 - 1),
             min_size=1, max_size=2),
    st.booleans())


def _build_program(stream) -> VectorProgram:
    arrays = [ArraySpec("a", 64 * 1024, 32), ArraySpec("b", 64 * 1024, 32)]
    program = VectorProgram("generated", arrays)

    def ref(slot: int) -> ArrayRef:
        return ArrayRef("ab"[slot // 12], (slot % 12) * 4096, 4096)

    for uid, (op_index, dest, sources, chain) in enumerate(stream):
        program.add(VectorInstruction(
            uid=uid, op=PROGRAM_OPS[op_index], dest=ref(dest),
            sources=tuple(ref(s) for s in sources),
            depends_on=(uid - 1,) if chain and uid else ()))
    return program


class TestRandomPrograms:
    """Random instruction streams: run-batched == per-page, bit for bit."""

    @given(stream=st.lists(INSTRUCTION, min_size=1, max_size=16))
    @settings(max_examples=8, deadline=None)
    def test_batched_object_engine_matches_per_page_reference(self, stream):
        batched = ConduitRuntime(SSDPlatform(_small_config(
            batched_movement=True)))
        per_page = ConduitRuntime(SSDPlatform(_small_config(
            batched_movement=False)))
        program = _build_program(stream)
        a = batched.execute(program, make_policy("Conduit"))
        b = per_page.execute(program, make_policy("Conduit"))
        _assert_bit_equal(a, b)


class TestCacheKeyIdentity:
    def test_other_platform_knobs_still_keyed(self):
        """``batched_movement`` is keyed: flipping it changes the key."""
        base = ExperimentConfig(workload_scale=0.05).platform
        batched_off = replace(base, batched_movement=False)
        assert (run_spec_key(RunSpec("AES", 0.05, "Conduit", base))
                != run_spec_key(RunSpec("AES", 0.05, "Conduit",
                                        batched_off)))
