"""Differential suite for the two offload decision engines.

The default engine collects and decides one instruction at a time.  The
opt-in wave engine (``PlatformConfig.batched_offload=True``) front-loads
feature collection per dependence-free, page-disjoint wave
(``repro.core.compiler.waves``) and materializes each member's feature
vector from the precollected batch; both engines then decide through the
policy's one ``choose`` method.  Bit-equality -- not float tolerance --
is the contract: the two engines must produce *identical*
:class:`ExecutionResult` trees, which is also what lets them share
sweep-cache entries (the engine flag is popped from
:func:`run_spec_key`).

Four layers:

* property-based sweep points (Hypothesis): random (workload, policy,
  scale, platform-variant, contention-feedback) combinations run on
  both engines -- feedback *on* matters because it exercises the live
  decision-time contention reads the batch deliberately does not cache;
* property-based synthetic programs (Hypothesis): random instruction
  streams (ops, operand overlap, dependency chains) on a tiny platform
  whose window pressure forces evictions, i.e. the hazard-counter
  fallback path;
* a custom policy that implements only ``choose``, on both engines;
* the cache-key identity the engine split relies on, the default engine
  choice, and the wave slicer's structural invariants.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.common import KIB, MIB, OpType
from repro.core.compiler.ir import (ArrayRef, ArraySpec, VectorInstruction,
                                    VectorProgram)
from repro.core.compiler.waves import wave_plan
from repro.core.layout import ArrayLayout
from repro.core.offload.policies import OffloadingPolicy, make_policy
from repro.core.platform import PlatformConfig, SSDPlatform
from repro.core.runtime import ConduitRuntime
from repro.experiments import ExperimentConfig, ExperimentRunner, \
    platform_variant
from repro.experiments.runner import RunSpec, run_spec_key
from repro.ssd.config import small_ssd_config
from repro.workloads import workload_by_name

PROGRAM_OPS = sorted((OpType.ADD, OpType.MUL, OpType.XOR, OpType.AND),
                     key=lambda op: op.value)


def _assert_bit_equal(batched, reference):
    """Every field of the two execution results must match exactly."""
    assert batched.total_time_ns == reference.total_time_ns
    assert batched.total_energy_nj == reference.total_energy_nj
    assert batched.energy == reference.energy
    assert batched.breakdown == reference.breakdown
    assert batched.records == reference.records
    assert batched.offload_overhead_avg_ns == \
        reference.offload_overhead_avg_ns
    assert batched.offload_overhead_max_ns == \
        reference.offload_overhead_max_ns


class TestRandomSweepPoints:
    """Random rosters / scales / policies: batched == reference engine."""

    @given(workload=st.sampled_from(["AES", "XOR Filter", "jacobi-1d"]),
           policy=st.sampled_from(["Conduit", "DM-Offloading", "PuD-SSD",
                                   "Ideal"]),
           scale=st.sampled_from([0.02, 0.05]),
           variant=st.sampled_from(["default", "multicore-isp", "cxl-pud"]),
           feedback=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_engines_bit_equal(self, workload, policy, scale, variant,
                               feedback):
        results = []
        for batched in (True, False):
            platform = dataclasses.replace(
                platform_variant(variant), batched_offload=batched,
                contention_feedback=feedback)
            runner = ExperimentRunner(
                ExperimentConfig(workload_scale=scale, platform=platform))
            results.append(
                runner.run(workload_by_name(workload, scale=scale), policy))
        _assert_bit_equal(*results)


def _small_config(**overrides) -> PlatformConfig:
    return PlatformConfig(ssd=small_ssd_config(),
                          dram_compute_window_bytes=1 * MIB,
                          sram_window_bytes=256 * KIB,
                          host_cache_bytes=1 * MIB, **overrides)


#: One synthetic instruction: (op index, dest slot, source slots, chain).
#: Slots address 4096-element regions of two declared 64 Ki-element
#: arrays; overlapping slots keep waves short and window pressure on the
#: small platform above triggers the eviction-epoch fallback.
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
    """Random instruction streams: batched == reference engine."""

    @given(stream=st.lists(INSTRUCTION, min_size=1, max_size=24),
           policy=st.sampled_from(["Conduit", "DM-Offloading"]),
           feedback=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_engines_bit_equal(self, stream, policy, feedback):
        results = []
        for batched in (True, False):
            runtime = ConduitRuntime(
                SSDPlatform(_small_config(batched_offload=batched,
                                          contention_feedback=feedback)))
            results.append(runtime.execute(_build_program(stream),
                                           make_policy(policy)))
        _assert_bit_equal(*results)


class LeastMovementPolicy(OffloadingPolicy):
    """A policy outside the registry that implements only ``choose``.

    It reads every feature the collector provides -- movement, queueing,
    dependence, compute and contention -- so any term the wave engine
    materialized differently from ``collect`` would change its choice.
    """

    name = "least-movement"

    def choose(self, instruction, features, context):
        viable = self._viable(features)
        if not viable:
            return self._fallback(features)
        return min(viable, key=lambda r: (
            features.feature(r).contended_data_movement_latency_ns
            + features.feature(r).queueing_delay_ns
            + features.feature(r).dependence_delay_ns,
            features.feature(r).expected_compute_latency_ns,
            r.value))


class TestCustomPolicy:
    """A ``choose``-only policy decides identically on both engines."""

    @given(stream=st.lists(INSTRUCTION, min_size=1, max_size=24),
           feedback=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_choose_only_policy_bit_equal(self, stream, feedback):
        results = []
        for batched in (True, False):
            runtime = ConduitRuntime(
                SSDPlatform(_small_config(batched_offload=batched,
                                          contention_feedback=feedback)))
            results.append(runtime.execute(_build_program(stream),
                                           LeastMovementPolicy()))
        _assert_bit_equal(*results)

    def test_choose_only_policy_on_a_workload(self):
        results = []
        for batched in (True, False):
            platform = dataclasses.replace(
                platform_variant("multicore-isp"), batched_offload=batched)
            runner = ExperimentRunner(
                ExperimentConfig(workload_scale=0.05, platform=platform))
            results.append(runner.run_with_policy(
                workload_by_name("jacobi-1d", scale=0.05),
                LeastMovementPolicy()))
        _assert_bit_equal(*results)


class TestWavePlanInvariants:
    """Structural soundness of the dependency slicer."""

    @given(stream=st.lists(INSTRUCTION, min_size=1, max_size=32))
    @settings(max_examples=20, deadline=None)
    def test_waves_partition_in_program_order(self, stream):
        program = _build_program(stream)
        layout = ArrayLayout(_small_config().ssd.nand.page_size_bytes)
        layout.place_all(sorted(program.arrays.values(),
                                key=lambda spec: spec.name))
        plan = wave_plan(program, layout)
        flat = [index for wave in plan.waves for index in wave]
        assert flat == list(range(len(program.instructions)))

    @given(stream=st.lists(INSTRUCTION, min_size=1, max_size=32))
    @settings(max_examples=20, deadline=None)
    def test_wave_members_dependence_free_and_page_disjoint(self, stream):
        program = _build_program(stream)
        layout = ArrayLayout(_small_config().ssd.nand.page_size_bytes)
        layout.place_all(sorted(program.arrays.values(),
                                key=lambda spec: spec.name))
        plan = wave_plan(program, layout)
        instructions = program.instructions
        for wave in plan.waves:
            uids = {instructions[i].uid for i in wave}
            seen_intervals = []
            for i in wave:
                for dep in instructions[i].depends_on:
                    assert dep == instructions[i].uid or dep not in uids
                touched = list(plan.source_runs[i])
                if plan.dest_runs[i] is not None:
                    touched.append(plan.dest_runs[i])
                own = []
                for base, count in touched:
                    for other_base, other_end in seen_intervals:
                        assert not (base < other_end
                                    and other_base < base + count)
                    own.append((base, base + count))
                seen_intervals.extend(own)


class TestCacheKeyIdentity:
    """Both engines must share sweep-cache entries (bit-equal results)."""

    def test_engine_flag_excluded_from_run_spec_key(self):
        base = ExperimentConfig(workload_scale=0.05).platform
        on = dataclasses.replace(base, batched_offload=True)
        off = dataclasses.replace(base, batched_offload=False)
        assert (run_spec_key(RunSpec("AES", 0.05, "Conduit", on))
                == run_spec_key(RunSpec("AES", 0.05, "Conduit", off)))

    def test_other_platform_knobs_still_keyed(self):
        base = ExperimentConfig(workload_scale=0.05).platform
        feedback = dataclasses.replace(base, contention_feedback=True)
        assert (run_spec_key(RunSpec("AES", 0.05, "Conduit", base))
                != run_spec_key(RunSpec("AES", 0.05, "Conduit", feedback)))

    def test_per_instruction_engine_is_default(self):
        assert PlatformConfig().batched_offload is False
        assert platform_variant("default").batched_offload is False
        assert platform_variant("wave-decisions").batched_offload is True
