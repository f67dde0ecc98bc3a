"""Benchmark: simulator throughput and parallel-sweep speedup.

Unlike the figure benchmarks (which report *simulated* metrics), this
benchmark tracks the *simulator's own* speed so the perf trajectory in the
``BENCH_*.json`` archives captures the data-movement engine, the sharded
sweep engine and any future hot-path work.  Numbers reported:

* simulated instructions per second of wall-clock for one Conduit-policy
  run of the heaviest workload (LLM Training), including platform
  construction -- a sweep builds a fresh platform per (workload, policy)
  pair, so construction is part of the real cost;
* wall-clock for one full Fig. 7 policy sweep over all six workloads run
  serially, the unit of work every figure harness pays;
* wall-clock and speedup of the same sweep sharded over the process pool,
  which is what makes full-paper-scale sweeps (``BENCH_SCALE = 1.0``,
  exercised by the ``slow``-marked case) routine.

The seed ran the full-policy sweep in ~46 s at ``BENCH_SCALE = 0.25``;
the current simulator takes a few seconds, and the parallel engine divides the remaining wall-clock by the worker
count on multi-core machines.
"""

import dataclasses
import json
import os
import platform as host_platform
import sys
import time

import pytest
from conftest import BENCH_SCALE, FULL_SCALE, run_once

from repro.core.platform import SSDPlatform
from repro.core.runtime import ConduitRuntime
from repro.core.offload.policies import make_policy
from repro.experiments import ExperimentConfig
from repro.experiments.runner import (ExperimentRunner, FIG7_POLICIES,
                                      resolve_sweep_workers)

#: The parallel-speedup assertion needs real hardware parallelism; below
#: this many usable CPUs the benchmark still records numbers but does not
#: assert the >= 2x floor (4 workers timesharing 1 core cannot speed up).
MIN_CPUS_FOR_SPEEDUP_ASSERT = 4

#: Worker count targeted by the speedup benchmark (the acceptance bar is
#: ">= 2x faster with >= 4 workers than serial").
SPEEDUP_WORKERS = 4


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _single_run(bench_config):
    runner = ExperimentRunner(bench_config)
    workload = [w for w in bench_config.workloads()
                if w.name == "LLM Training"][0]
    program = runner.program_for(workload)  # compile outside the clock
    started = time.perf_counter()
    platform = SSDPlatform(bench_config.platform)
    runtime = ConduitRuntime(platform)
    result = runtime.execute(program, make_policy("Conduit"), workload.name)
    elapsed_s = time.perf_counter() - started
    return result, elapsed_s


def _full_sweep(bench_config):
    runner = ExperimentRunner(bench_config)
    started = time.perf_counter()
    results = runner.sweep(FIG7_POLICIES)
    elapsed_s = time.perf_counter() - started
    return results, elapsed_s


def _serial_vs_parallel_sweep(config, workers):
    """Run the full Fig. 7 sweep serially, then sharded; time both."""
    serial_runner = ExperimentRunner(config)
    started = time.perf_counter()
    serial = serial_runner.sweep(FIG7_POLICIES)
    serial_s = time.perf_counter() - started

    parallel_runner = ExperimentRunner(config)
    started = time.perf_counter()
    parallel = parallel_runner.sweep(FIG7_POLICIES, parallel=True,
                                     workers=workers)
    parallel_s = time.perf_counter() - started
    return serial, serial_s, parallel, parallel_s


def _assert_identical(serial, parallel):
    assert list(serial) == list(parallel)
    for key in serial:
        assert serial[key].total_time_ns == parallel[key].total_time_ns, key
        assert (serial[key].total_energy_nj ==
                parallel[key].total_energy_nj), key
        assert len(serial[key].records) == len(parallel[key].records), key


def test_bench_sim_instruction_throughput(benchmark, bench_config):
    result, elapsed_s = run_once(benchmark, _single_run, bench_config)
    instructions = len(result.records)
    throughput = instructions / elapsed_s
    benchmark.extra_info["instructions"] = instructions
    benchmark.extra_info["sim_instructions_per_second"] = throughput
    print(f"\nSim throughput (Conduit, LLM Training, incl. platform build): "
          f"{instructions} instructions in {elapsed_s * 1e3:.1f} ms "
          f"= {throughput:,.0f} instr/s")
    assert instructions > 0
    # Loose regression floor only: the simulator sustains several
    # thousand instr/s on a dev machine at BENCH_SCALE=0.25 (seed:
    # ~500/s); the floor leaves ~10x slack for slow or contended CI
    # runners and shrinks with the scale (larger workloads spend more
    # wall-clock per instruction on movement).  The authoritative
    # trajectory is the recorded extra_info, not this assert.
    assert throughput > 500 * min(1.0, 0.25 / BENCH_SCALE)


@pytest.mark.slow
def test_bench_full_policy_sweep_wall_clock(benchmark, bench_config):
    """Serial Fig. 7 sweep wall-clock.

    ``slow``-marked: ``perfbench/run.py --workload fig7-paper`` measures
    the same sweep with paired runs; serial == parallel equality stays in
    tier-1 through ``tests/test_sweep_engine.py``.
    """
    results, elapsed_s = run_once(benchmark, _full_sweep, bench_config)
    pairs = len(results)
    total_instructions = sum(len(r.records) for r in results.values())
    throughput = total_instructions / elapsed_s
    benchmark.extra_info["sweep_seconds"] = elapsed_s
    benchmark.extra_info["sweep_pairs"] = pairs
    benchmark.extra_info["sim_instructions_per_second"] = throughput
    print(f"\nFull Fig. 7 policy sweep (serial): {pairs} (workload, policy) "
          f"pairs, {total_instructions} instructions in {elapsed_s:.2f} s "
          f"= {throughput:,.0f} instr/s (per-page seed: ~46 s at 0.25)")
    # The measured speedup over the seed is ~15-20x at BENCH_SCALE=0.25
    # (seed: ~46 s); assert only a loose 2x floor, scaled with
    # BENCH_SCALE so raising the workload scale (a ROADMAP item) cannot
    # turn the benchmark red without a real regression.  The recorded
    # extra_info carries the authoritative numbers.
    seed_baseline_s = 46.0 * (BENCH_SCALE / 0.25)
    assert elapsed_s < seed_baseline_s / 2.0


@pytest.mark.slow
def test_bench_parallel_sweep_speedup(benchmark, bench_config):
    """Sharded sweep: identical results, near-linear speedup on multicore.

    ``slow``-marked for the same reason as the serial sweep above.
    """
    workers = min(resolve_sweep_workers(None), SPEEDUP_WORKERS)
    serial, serial_s, parallel, parallel_s = run_once(
        benchmark, _serial_vs_parallel_sweep, bench_config, workers)
    _assert_identical(serial, parallel)
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    cpus = _usable_cpus()
    benchmark.extra_info["serial_seconds"] = serial_s
    benchmark.extra_info["parallel_seconds"] = parallel_s
    benchmark.extra_info["parallel_speedup"] = speedup
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["usable_cpus"] = cpus
    print(f"\nFull Fig. 7 sweep, serial {serial_s:.2f} s vs "
          f"{workers}-worker sharded {parallel_s:.2f} s = "
          f"{speedup:.2f}x speedup ({cpus} usable CPUs)")
    # The >= 2x acceptance floor needs actual hardware parallelism: four
    # workers timesharing one or two cores cannot beat serial execution.
    # Single-core runners still verify result equality above and record
    # the measured numbers in extra_info.
    if workers >= SPEEDUP_WORKERS and cpus >= MIN_CPUS_FOR_SPEEDUP_ASSERT:
        assert speedup >= 2.0, (
            f"parallel sweep only {speedup:.2f}x faster with {workers} "
            f"workers on {cpus} CPUs")


#: Where the engine perf record lands (repo root, next to the other
#: ``BENCH_*`` archives the docstring describes).
BENCH_RECORD_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                                 "BENCH_vectorized.json")

#: Schema version of the archived record.  The record is *tracked* but
#: overwritten by every benchmark run, so each entry must carry enough
#: metadata (scale, host, schema) to be interpretable after the machine
#: that wrote it is gone -- and so that a stale-schema entry fails the
#: suite loudly (``tests/test_bench_record.py`` pins the same literal)
#: instead of silently mixing fields from different eras.
#: Version 2: added ``schema_version``, ``host`` and ``recorded_unix``.
#: Version 3: added the wave-batched offload-decision A/B
#: (``reference_offload_sweep_s``, ``batched_over_reference_speedup``,
#: ``pr8_landing_vs_reference``) and the default-engine floor asserts.
#: Version 4: the vectorized movement engine was deleted, so the object
#: movement sweep and ``vectorized_over_object_speedup`` are gone and
#: ``vectorized_sweep_s`` became ``default_sweep_s``.
#: Since the per-instruction offload engine became the default, the
#: version-4 fields are read as: ``default_sweep_s`` is the default
#: (per-instruction) engine, ``reference_offload_sweep_s`` the opt-in
#: wave engine (``batched_offload=True``) it is compared against, and
#: ``batched_over_reference_speedup`` is still ``reference_offload_sweep_s
#: / default_sweep_s`` (above 1 when the default engine is faster).
BENCH_RECORD_SCHEMA_VERSION = 4

#: Fail-loud floor on wave-engine time over default-engine time: the
#: default engine must not lose to the engine it replaced.  Wall-clock
#: on a shared runner swings by tens of percent, so the floor is a noise
#: allowance, not a target: a genuine regression trips it, while
#: scheduler jitter does not.
DEFAULT_ENGINE_FLOOR = 0.70


def _host_metadata():
    """Where the record's live numbers were measured."""
    return {
        "platform": host_platform.platform(),
        "machine": host_platform.machine(),
        "python": sys.version.split()[0],
        "usable_cpus": _usable_cpus(),
    }

#: The paired A/B numbers recorded when the vectorized engine landed
#: (PR 6): Fig. 7 serial sweep at scale 0.25, alternating
#: baseline/current subprocesses on the same machine, best-vs-best over
#: 8 pairs.  Kept in the record so the trajectory has its anchor even
#: when the live run below executes on different hardware.
PR6_LANDING_RECORD = {
    "scale": 0.25,
    "pr5_baseline_best_s": 2.434,
    "vectorized_best_s": 1.057,
    "speedup_best_vs_best": 2.30,
    "per_pair_speedup_range": [2.0, 4.3],
    "methodology": ("paired A/B subprocess harness, alternating engines, "
                    "warm run timed; best-vs-best is the conservative "
                    "ratio under machine noise"),
}

#: The paired A/B numbers recorded when the wave-batched offload
#: decision engine landed (PR 8): Fig. 7 serial sweep at scale 0.25, 10
#: alternating in-process pairs after warmup on the same (1-CPU, noisy)
#: machine.  Honest result: the ISSUE targeted >= 1.5x but the measured
#: outcome is parity-to-slight-win -- real Fig. 7 programs slice into
#: ~1.5-member waves (operand overlap forces wave breaks), so the win
#: comes from the cheaper packed per-member decision path, not from
#: amortized collection.  Recorded anyway per the acceptance criteria;
#: the differential suite (``tests/test_batched_offload.py``) pins the
#: engines bit-equal, so the default stayed on the batched path until
#: paired perfbench runs showed the per-instruction engine faster.
PR8_LANDING_RECORD = {
    "scale": 0.25,
    "reference_offload_best_s": 1.298,
    "batched_offload_best_s": 1.269,
    "speedup_best_vs_best": 1.02,
    "median_pair_speedup": 1.05,
    "target_speedup": 1.5,
    "target_met": False,
    "mean_wave_members": 1.47,
    "methodology": ("paired A/B in-process harness, 10 alternating "
                    "warm pairs, gc.collect() before each sweep; "
                    "best-vs-best plus the median per-pair ratio "
                    "under heavy 1-CPU machine noise"),
}


@pytest.mark.slow
def test_bench_vectorized_engine_record(benchmark, bench_config):
    """Time the default decision engine against the wave engine; archive.

    Four Fig. 7 sweeps in one timed round, in ABBA order so neither
    engine always runs first: the opt-in wave engine
    (``batched_offload=True``), the default per-instruction engine twice,
    and the wave engine again.  Each engine's faster sweep is recorded.
    The live ratio tracks the current machine; the archived JSON also
    carries the pinned PR 6 and PR 8 landing measurements so the perf
    trajectory is recorded even as hardware changes underneath CI.
    Fails loudly (``DEFAULT_ENGINE_FLOOR``) when the default engine loses
    to the wave engine beyond single-round noise.

    ``slow``-marked: it rewrites the tracked ``BENCH_vectorized.json``,
    so run it on purpose with ``pytest -m slow benchmarks``.
    """
    wave_config = dataclasses.replace(
        bench_config,
        platform=dataclasses.replace(bench_config.platform,
                                     batched_offload=True))

    def both_engines():
        wave_results, first_wave_s = _full_sweep(wave_config)
        default_results, first_default_s = _full_sweep(bench_config)
        _, second_default_s = _full_sweep(bench_config)
        _, second_wave_s = _full_sweep(wave_config)
        return (default_results, min(first_default_s, second_default_s),
                wave_results, min(first_wave_s, second_wave_s))

    default_results, default_s, wave_results, wave_s = run_once(
        benchmark, both_engines)
    # Bit-equality is the engines' contract; a perf benchmark that
    # silently compared different answers would be meaningless.
    _assert_identical(default_results, wave_results)
    decision_ratio = wave_s / default_s if default_s else float("inf")
    record = {
        "schema_version": BENCH_RECORD_SCHEMA_VERSION,
        "bench_scale": BENCH_SCALE,
        "host": _host_metadata(),
        "recorded_unix": round(time.time(), 3),
        "sweep_pairs": len(default_results),
        "default_sweep_s": default_s,
        "reference_offload_sweep_s": wave_s,
        "batched_over_reference_speedup": decision_ratio,
        "pr6_landing_vs_pr5": PR6_LANDING_RECORD,
        "pr8_landing_vs_reference": PR8_LANDING_RECORD,
    }
    with open(BENCH_RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    benchmark.extra_info.update(record)
    print(f"\nDefault engine: {default_s:.2f} s vs wave engine "
          f"{wave_s:.2f} s ({decision_ratio:.2f}x) at scale {BENCH_SCALE} "
          f"(record: {os.path.abspath(BENCH_RECORD_PATH)})")
    assert default_s > 0 and wave_s > 0
    assert decision_ratio >= DEFAULT_ENGINE_FLOOR, (
        f"default per-instruction offload engine lost to the wave engine "
        f"({decision_ratio:.2f}x < {DEFAULT_ENGINE_FLOOR}x floor) at "
        f"scale {BENCH_SCALE}")


@pytest.mark.slow
def test_bench_full_scale_parallel_sweep(benchmark):
    """The paper-scale (``workload_scale=1.0``) Fig. 7 sweep, sharded.

    ``slow``-marked: run with ``pytest -m slow benchmarks`` when the full
    Table 2 footprints are wanted; the default tier-1 run deselects it.
    """
    config = ExperimentConfig(workload_scale=FULL_SCALE)
    runner = ExperimentRunner(config)

    def sweep():
        started = time.perf_counter()
        results = runner.sweep(FIG7_POLICIES, parallel=True)
        return results, time.perf_counter() - started

    results, elapsed_s = run_once(benchmark, sweep)
    pairs = len(results)
    benchmark.extra_info["sweep_seconds"] = elapsed_s
    benchmark.extra_info["sweep_pairs"] = pairs
    benchmark.extra_info["workers"] = runner.last_sweep_stats.workers
    print(f"\nFull-scale (1.0) Fig. 7 sweep: {pairs} pairs in "
          f"{elapsed_s:.2f} s with {runner.last_sweep_stats.workers} "
          "workers")
    assert pairs == 6 * len(FIG7_POLICIES)
    for result in results.values():
        assert result.total_time_ns > 0
