"""Unit tests for the parallel sharded sweep engine.

Covers the pickle-able :class:`RunSpec` unit of work, the stable cache
key, the on-disk result cache, worker-count resolution (including the
``REPRO_SWEEP_WORKERS`` CI override) and the core guarantee: a parallel
sweep returns the same grid, in the same order, with bit-identical
results, as a serial sweep.
"""

from __future__ import annotations

import gc
import pickle
from array import array
from dataclasses import fields, replace

import pytest

from repro.common import MIB, OpType, Resource
from repro.core.compiler.binary import BinaryEncoder
from repro.core.metrics import (RECORD_FIELDS, ExecutionResult,
                                InstructionRecord, RecordTable)
from repro.core.platform import PlatformConfig
from repro.experiments import (DEFAULT_SWEEP_CACHE_DIR, ExperimentConfig,
                               ExperimentRunner, RunSpec, SweepCache,
                               default_sweep_cache_dir, execute_run_spec,
                               platform_variant, resolve_sweep_workers,
                               run_spec_key)
from repro.experiments.runner import SWEEP_CACHE_ENV, SWEEP_WORKERS_ENV
from repro.ssd.config import small_ssd_config
from repro.workloads import (Jacobi1DWorkload, Workload,
                             available_workloads, workload_by_name)

TINY_SCALE = 0.03


@pytest.fixture(scope="module")
def tiny_config() -> ExperimentConfig:
    platform = PlatformConfig(ssd=small_ssd_config(),
                              dram_compute_window_bytes=1 * MIB,
                              host_cache_bytes=1 * MIB)
    return ExperimentConfig(workload_scale=TINY_SCALE, platform=platform)


def result_fingerprint(result):
    """Every field the golden suite cares about, as a comparable tuple."""
    return (
        result.workload, result.policy, result.total_time_ns,
        result.total_energy_nj, result.energy.compute_nj,
        result.energy.data_movement_nj,
        result.breakdown.compute_ns,
        result.breakdown.host_data_movement_ns,
        result.breakdown.internal_data_movement_ns,
        result.breakdown.flash_read_ns,
        result.offload_overhead_avg_ns, result.offload_overhead_max_ns,
        tuple((r.uid, r.op, r.resource, r.dispatch_ns, r.ready_ns,
               r.start_ns, r.end_ns, r.compute_ns, r.data_movement_ns,
               r.overhead_ns) for r in result.records),
    )


class TestRunSpec:
    def test_round_trips_through_pickle(self, tiny_config):
        spec = RunSpec(workload="jacobi-1d", scale=TINY_SCALE,
                       policy="Conduit", platform=tiny_config.platform)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_key_is_stable_and_sensitive(self, tiny_config):
        spec = RunSpec(workload="jacobi-1d", scale=TINY_SCALE,
                       policy="Conduit", platform=tiny_config.platform)
        assert run_spec_key(spec) == run_spec_key(
            pickle.loads(pickle.dumps(spec)))
        assert run_spec_key(spec) != run_spec_key(
            replace(spec, policy="Ideal"))
        assert run_spec_key(spec) != run_spec_key(replace(spec, scale=0.06))
        wider = replace(tiny_config.platform,
                        dram_compute_window_bytes=2 * MIB)
        assert run_spec_key(spec) != run_spec_key(
            replace(spec, platform=wider))

    def test_execute_run_spec_matches_runner_run(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        workload = Jacobi1DWorkload(scale=TINY_SCALE)
        direct = runner.run(workload, "Conduit")
        from_spec = execute_run_spec(runner.spec_for(workload, "Conduit"))
        assert result_fingerprint(direct) == result_fingerprint(from_spec)

    def test_compile_runs_under_the_gc_pause(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        compile_program = runner.program_for
        collector_on = []

        def spy(workload):
            collector_on.append(gc.isenabled())
            return compile_program(workload)

        runner.program_for = spy
        runner.run(Jacobi1DWorkload(scale=TINY_SCALE), "CPU")
        runner.sweep(("CPU",), [Jacobi1DWorkload(scale=TINY_SCALE)])
        assert collector_on == [False, False]
        assert gc.isenabled()

    @pytest.mark.parametrize("name", available_workloads())
    def test_paused_compile_keeps_the_binary_image(self, tiny_config, name):
        # The sweep compiles with the cycle collector paused; the encoded
        # program must equal one compiled with the collector running.
        runner = ExperimentRunner(tiny_config)
        workload = workload_by_name(name, scale=TINY_SCALE)
        runner.sweep(("CPU",), [workload])
        paused = BinaryEncoder().encode(runner.program_for(workload))
        program, _ = workload_by_name(name, scale=TINY_SCALE).vector_program()
        assert BinaryEncoder().encode(program).image == paused.image


class TestParallelSweep:
    POLICIES = ("CPU", "DM-Offloading", "Conduit")

    def test_parallel_equals_serial_in_order_and_value(self, tiny_config):
        serial = ExperimentRunner(tiny_config).sweep(self.POLICIES)
        parallel = ExperimentRunner(tiny_config).sweep(
            self.POLICIES, parallel=True, workers=2)
        assert list(serial) == list(parallel)
        for key in serial:
            assert (result_fingerprint(serial[key]) ==
                    result_fingerprint(parallel[key])), key

    def test_grid_order_is_workload_major(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        workloads = tiny_config.workloads()[:2]
        results = runner.sweep(("CPU", "Conduit"), workloads,
                               parallel=True, workers=2)
        assert list(results) == [
            (workload.name, policy)
            for workload in workloads for policy in ("CPU", "Conduit")
        ]

    @pytest.mark.parametrize("parallel, workers", [(False, None), (True, 2)])
    def test_failing_unit_names_its_spec(self, tiny_config, parallel,
                                         workers):
        # Two units so the parallel case really shards over a 2-worker
        # pool; the note has to survive pickling out of the worker.
        runner = ExperimentRunner(tiny_config)
        workload = Jacobi1DWorkload(scale=TINY_SCALE)
        with pytest.raises(ValueError,
                           match="unknown offloading policy") as info:
            runner.sweep(("CPU", "No-Such-Policy"), [workload],
                         platforms=["cxl-pud"], parallel=parallel,
                         workers=workers)
        notes = "\n".join(getattr(info.value, "__notes__", ()))
        assert "workload 'jacobi-1d'" in notes
        assert "policy 'No-Such-Policy'" in notes
        assert "platform 'cxl-pud'" in notes
        spec = runner.spec_for(
            workload, "No-Such-Policy",
            platform=platform_variant("cxl-pud", base=tiny_config.platform),
            platform_name="cxl-pud")
        assert f"run spec {run_spec_key(spec)[:12]}" in notes

    def test_single_worker_parallel_stays_in_process(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        workloads = [Jacobi1DWorkload(scale=TINY_SCALE)]
        results = runner.sweep(("Conduit",), workloads, parallel=True,
                               workers=1)
        assert runner.last_sweep_stats.workers == 1
        assert runner.last_sweep_stats.executed == 1
        assert (("jacobi-1d", "Conduit")) in results

    def test_unregistered_workload_rejected_in_parallel(self, tiny_config):
        class UnregisteredWorkload(Jacobi1DWorkload):
            name = "jacobi-1d"  # same name, different class

        runner = ExperimentRunner(tiny_config)
        workload = UnregisteredWorkload(scale=TINY_SCALE)
        with pytest.raises(ValueError, match="not reconstructible"):
            runner.sweep(("Conduit",), [workload], parallel=True, workers=2)
        # The serial path still accepts it (no reconstruction needed).
        results = runner.sweep(("Conduit",), [workload])
        assert ("jacobi-1d", "Conduit") in results

    def test_unregistered_workload_rejected_with_cache(self, tiny_config,
                                                       tmp_path):
        class UnregisteredWorkload(Jacobi1DWorkload):
            name = "jacobi-1d"

        # Cache keys identify workloads by name, so even a *serial* cached
        # sweep must reject same-named unregistered workloads: storing
        # their results would poison later sweeps of the real workload.
        runner = ExperimentRunner(tiny_config)
        with pytest.raises(ValueError, match="not reconstructible"):
            runner.sweep(("Conduit",), [UnregisteredWorkload(TINY_SCALE)],
                         cache_dir=str(tmp_path))

    def test_workload_by_name_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown workload"):
            workload_by_name("no-such-workload")


class _Reduce:
    """Pickles as the call ``function(*args)``: forges cache payloads."""

    def __init__(self, function, args) -> None:
        self.function, self.args = function, args

    def __reduce__(self):
        return self.function, self.args


class TestSweepCache:
    def test_second_sweep_is_served_from_cache(self, tiny_config, tmp_path):
        cache_dir = str(tmp_path / "cache")
        runner = ExperimentRunner(tiny_config)
        workloads = [Jacobi1DWorkload(scale=TINY_SCALE)]
        first = runner.sweep(("CPU", "Conduit"), workloads,
                             cache_dir=cache_dir)
        assert runner.last_sweep_stats.executed == 2
        assert runner.last_sweep_stats.cache_hits == 0
        fresh_runner = ExperimentRunner(tiny_config)
        second = fresh_runner.sweep(("CPU", "Conduit"), workloads,
                                    cache_dir=cache_dir)
        assert fresh_runner.last_sweep_stats.cache_hits == 2
        assert fresh_runner.last_sweep_stats.executed == 0
        for key in first:
            assert (result_fingerprint(first[key]) ==
                    result_fingerprint(second[key]))

    @pytest.mark.parametrize("isp_cores", [1, 3])
    def test_records_survive_store_and_load(self, tiny_config, tmp_path,
                                            isp_cores):
        # isp_cores=3 registers per-core BackendId resources, which must
        # come back as equal identities of the same type.
        config = replace(tiny_config, platform=replace(
            tiny_config.platform, isp_cores=isp_cores))
        runner = ExperimentRunner(config)
        spec = runner.spec_for(Jacobi1DWorkload(scale=TINY_SCALE), "Conduit")
        result = execute_run_spec(spec)
        cache = SweepCache(str(tmp_path))
        cache.store(spec, result)
        loaded = cache.load(spec)
        assert len(loaded.records) == len(result.records) > 0
        names = [spec_field.name for spec_field in fields(InstructionRecord)]
        for ours, stored in zip(result.records, loaded.records):
            assert type(stored) is type(ours)
            for name in names:
                value = getattr(stored, name)
                assert value == getattr(ours, name), name
                assert type(value) is type(getattr(ours, name)), name
        if isp_cores > 1:
            assert any(type(record.resource).__name__ == "BackendId"
                       for record in loaded.records)
        # The columns come back as the same typed arrays.
        table = loaded.records
        assert type(table) is RecordTable
        assert table.uid.typecode == "q"
        assert {getattr(table, name).typecode
                for name in RECORD_FIELDS[3:]} == {"d"}

    def test_corrupt_entries_are_recomputed(self, tiny_config, tmp_path):
        cache_dir = str(tmp_path / "cache")
        runner = ExperimentRunner(tiny_config)
        workloads = [Jacobi1DWorkload(scale=TINY_SCALE)]
        runner.sweep(("Conduit",), workloads, cache_dir=cache_dir)
        spec = runner.spec_for(workloads[0], "Conduit")
        entry = tmp_path / "cache" / f"{run_spec_key(spec)}.pkl"
        entry.write_bytes(b"not a pickle")
        runner.sweep(("Conduit",), workloads, cache_dir=cache_dir)
        assert runner.last_sweep_stats.cache_hits == 0
        assert runner.last_sweep_stats.executed == 1

    @pytest.mark.parametrize("payload", [
        # A string whose bytes are not UTF-8 (UnicodeDecodeError).
        b"X\x02\x00\x00\x00\xff\xfe.",
        # A reduce calling ExecutionResult() without arguments (TypeError).
        pickle.dumps(_Reduce(ExecutionResult, ())),
        # A record table whose columns differ in length (ValueError).
        pickle.dumps(_Reduce(RecordTable, (
            array("q", [0, 1]), [OpType.ADD], [Resource.ISP],
            *(array("d", [0.0]) for _ in range(7))))),
    ], ids=["bad-utf8", "result-without-args", "ragged-table"])
    def test_damaged_payloads_are_misses(self, tiny_config, tmp_path,
                                         payload):
        cache = SweepCache(str(tmp_path))
        spec = ExperimentRunner(tiny_config).spec_for(
            Jacobi1DWorkload(scale=TINY_SCALE), "Conduit")
        (tmp_path / f"{run_spec_key(spec)}.pkl").write_bytes(payload)
        assert cache.load(spec) is None
        assert cache.misses == 1

    def test_cache_ignores_wrong_payload_type(self, tiny_config, tmp_path):
        cache = SweepCache(str(tmp_path))
        spec = ExperimentRunner(tiny_config).spec_for(
            Jacobi1DWorkload(scale=TINY_SCALE), "Conduit")
        path = tmp_path / f"{run_spec_key(spec)}.pkl"
        path.write_bytes(pickle.dumps({"not": "a result"}))
        assert cache.load(spec) is None
        assert cache.misses == 1

    def test_store_failure_does_not_leak_temp_file(self, tiny_config,
                                                   tmp_path):
        # pickle.dump raising something other than OSError (here: an
        # unpicklable payload) used to leave the mkstemp file behind; the
        # cleanup now lives in a ``finally`` so the directory stays clean
        # and the error still propagates.
        cache = SweepCache(str(tmp_path))
        spec = ExperimentRunner(tiny_config).spec_for(
            Jacobi1DWorkload(scale=TINY_SCALE), "Conduit")
        unpicklable = lambda: None  # noqa: E731 - locals never pickle
        with pytest.raises(Exception):
            cache.store(spec, unpicklable)
        assert list(tmp_path.iterdir()) == []


class TestWorkerResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(SWEEP_WORKERS_ENV, "7")
        assert resolve_sweep_workers(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(SWEEP_WORKERS_ENV, "5")
        assert resolve_sweep_workers() == 5

    def test_env_forces_serial(self, monkeypatch):
        monkeypatch.setenv(SWEEP_WORKERS_ENV, "1")
        assert resolve_sweep_workers() == 1

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(SWEEP_WORKERS_ENV, "many")
        with pytest.raises(ValueError, match=SWEEP_WORKERS_ENV):
            resolve_sweep_workers()

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            resolve_sweep_workers(0)

    def test_defaults_to_cpu_count(self, monkeypatch):
        import os
        monkeypatch.delenv(SWEEP_WORKERS_ENV, raising=False)
        assert resolve_sweep_workers() == (os.cpu_count() or 1)


class TestCacheDirResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(SWEEP_CACHE_ENV, raising=False)
        assert default_sweep_cache_dir() == DEFAULT_SWEEP_CACHE_DIR

    @pytest.mark.parametrize("value", ["", "0", "off", "none", "OFF"])
    def test_disabled(self, monkeypatch, value):
        monkeypatch.setenv(SWEEP_CACHE_ENV, value)
        assert default_sweep_cache_dir() is None

    def test_custom_directory(self, monkeypatch):
        monkeypatch.setenv(SWEEP_CACHE_ENV, "/tmp/my-sweeps")
        assert default_sweep_cache_dir() == "/tmp/my-sweeps"
