"""Trace ingestion, zipf generation, the open workload registry, and the
``traces`` experiment wiring.

Covers the contract the sweep engine relies on: content-defined workloads
are deterministic functions of ``(name, scale, cache_identity)``, rebuild
bit-identically in parallel workers, and fold their content hash /
generator parameters into every sweep cache key.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import build_parser, main as cli_main
from repro.common import MIB, SimulationError
from repro.core.platform import PlatformConfig
from repro.experiments import (DEFAULT_WORKLOAD_SCALE, ExperimentConfig,
                               ExperimentRunner, RunSpec, run_experiment,
                               run_spec_key)
from repro.experiments.runner import execute_run_spec
from repro.serve.tenants import TenantSpec
from repro.ssd.config import small_ssd_config
from repro.workloads import (ALL_WORKLOADS, MQSIM_MINI_NAME,
                             WORKLOAD_REGISTRY, ZIPF_HOT_NAME, ScaleFloorWarning,
                             TraceWorkload, ZipfParams, ZipfWorkload,
                             available_workloads, register_workload,
                             workload_by_name)
from repro.workloads.traces import (VECTOR_RUN_SECTORS, TraceRow,
                                    coalesce_runs, fixture_trace_path,
                                    format_mqsim_trace, generate_zipf_rows,
                                    load_mqsim_trace, parse_mqsim_trace,
                                    register_trace_workload,
                                    trace_fingerprint, zipf_workload_factory)

TINY_SCALE = 0.03

#: Rows in the checked-in fixture (16 + 10 + 8 + 6 + 4; comments excluded).
FIXTURE_ROWS = 44


@pytest.fixture
def tiny_config() -> ExperimentConfig:
    platform = PlatformConfig(ssd=small_ssd_config(),
                              dram_compute_window_bytes=1 * MIB,
                              host_cache_bytes=1 * MIB)
    return ExperimentConfig(workload_scale=TINY_SCALE, platform=platform)


@pytest.fixture
def scratch_registry():
    """Restores WORKLOAD_REGISTRY after a test that registers names."""
    snapshot = dict(WORKLOAD_REGISTRY)
    yield WORKLOAD_REGISTRY
    WORKLOAD_REGISTRY.clear()
    WORKLOAD_REGISTRY.update(snapshot)


def result_fingerprint(result) -> Tuple:
    return (result.workload, result.policy, result.total_time_ns,
            result.total_energy_nj, result.energy.compute_nj,
            result.energy.data_movement_nj,
            tuple((r.uid, r.op, r.resource, r.dispatch_ns, r.end_ns)
                  for r in result.records))


# ------------------------------------------------------------------------
# MQSim trace parser
# ------------------------------------------------------------------------


class TestParser:
    def test_fixture_parses(self):
        rows = load_mqsim_trace(fixture_trace_path())
        assert len(rows) == FIXTURE_ROWS
        assert all(isinstance(row, TraceRow) for row in rows)
        arrivals = [row.arrival_ns for row in rows]
        assert arrivals == sorted(arrivals)

    def test_round_trip_preserves_rows(self):
        rows = load_mqsim_trace(fixture_trace_path())
        assert parse_mqsim_trace(format_mqsim_trace(rows)) == rows

    def test_whitespace_and_comments_are_tolerated(self):
        text = ("# header comment\n"
                "\n"
                "0\t0\t0\t256\t1\n"
                "100   0    256  8  W   # trailing comment\n"
                "  200 0 264 8 R\n")
        rows = parse_mqsim_trace(text)
        assert len(rows) == 3
        assert rows[0].sectors == 256 and not rows[0].is_write
        assert rows[1].is_write and rows[1].lba == 256
        assert not rows[2].is_write

    def test_letter_and_numeric_opcodes_agree(self):
        numeric = parse_mqsim_trace("0 0 0 8 0\n100 0 8 8 1\n")
        letters = parse_mqsim_trace("0 0 0 8 W\n100 0 8 8 R\n")
        assert numeric == letters

    @pytest.mark.parametrize("line,fragment", [
        ("0 0 0 256", "expected 5 fields"),
        ("0 0 0 256 1 9", "expected 5 fields"),
        ("zero 0 0 256 1", "arrival"),
        ("0 0 -5 256 1", "LBA"),
        ("0 0 0 0 1", "size"),
        ("0 0 0 256 5", "opcode"),
    ])
    def test_malformed_line_names_the_line_number(self, line, fragment):
        text = f"# comment\n0 0 0 8 1\n{line}\n"
        with pytest.raises(SimulationError) as excinfo:
            parse_mqsim_trace(text, source="bad.trace")
        message = str(excinfo.value)
        assert message.startswith("bad.trace:3:")
        assert fragment in message

    def test_decreasing_arrivals_rejected(self):
        with pytest.raises(SimulationError, match=":2:.*non-decreasing"):
            parse_mqsim_trace("100 0 0 8 1\n50 0 8 8 1\n")

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError, match="no requests"):
            parse_mqsim_trace("# only comments\n\n")

    def test_fingerprint_ignores_formatting_but_not_content(self):
        base = parse_mqsim_trace("0 0 0 8 1\n100 0 8 8 0\n")
        reformatted = parse_mqsim_trace(
            "# comment\n0\t0\t0\t8\tR\n\n100  0  8  8  W\n")
        changed = parse_mqsim_trace("0 0 0 8 1\n100 0 16 8 0\n")
        assert trace_fingerprint(base) == trace_fingerprint(reformatted)
        assert trace_fingerprint(base) != trace_fingerprint(changed)


# ------------------------------------------------------------------------
# Lowering
# ------------------------------------------------------------------------


class TestLowering:
    def test_fixture_runs_coalesce(self):
        rows = load_mqsim_trace(fixture_trace_path())
        runs = coalesce_runs(rows)
        # The 16 leading sequential reads coalesce into one run.
        assert len(runs[0]) == 16
        assert sum(row.sectors for row in runs[0]) == 16 * 256

    def test_fixture_lowered_program_vectorizes(self):
        workload = TraceWorkload.from_file(fixture_trace_path(),
                                           scale=TINY_SCALE)
        program, report = workload.vector_program()
        assert len(program) > 0
        program.validate()
        # The sequential runs must become vectorizable work, the
        # interleaved small accesses must not.
        assert 0.0 < report.vectorizable_fraction < 1.0

    def test_small_accesses_become_one_scalar_section(self):
        workload = TraceWorkload.from_file(fixture_trace_path(),
                                           scale=TINY_SCALE)
        program = workload.build_program()
        names = [section.name for section in program.scalar_sections]
        assert names == ["interleaved_small_accesses"]
        long_runs = [run for run in coalesce_runs(workload.rows)
                     if sum(r.sectors for r in run) >= VECTOR_RUN_SECTORS]
        assert len(program.loops) == len(long_runs)

    def test_cache_identity_pins_the_content(self):
        rows = load_mqsim_trace(fixture_trace_path())
        workload = TraceWorkload(rows, name="t", scale=TINY_SCALE)
        assert workload.cache_identity() == (
            ("trace", trace_fingerprint(rows)),)
        mutated = TraceWorkload(rows[:-1], name="t", scale=TINY_SCALE)
        assert workload.cache_identity() != mutated.cache_identity()

    @pytest.mark.parametrize("build", [
        lambda: TraceWorkload(load_mqsim_trace(fixture_trace_path()),
                              name="t", scale=TINY_SCALE),
        lambda: ZipfWorkload(scale=TINY_SCALE,
                             params=ZipfParams(requests=50, seed=3)),
    ], ids=["trace", "zipf"])
    def test_fingerprint_is_hashed_once_per_instance(self, build,
                                                     monkeypatch):
        from repro.workloads.traces import workload as trace_module
        hashed = []

        def counting(rows):
            hashed.append(len(rows))
            return trace_fingerprint(rows)

        monkeypatch.setattr(trace_module, "trace_fingerprint", counting)
        workload = build()
        first = workload.cache_identity()
        for _ in range(3):
            assert workload.cache_identity() == first
        assert hashed == [len(workload.rows)]
        assert first[-1] == ("trace", trace_fingerprint(workload.rows))

    def test_empty_rows_rejected(self):
        with pytest.raises(SimulationError, match="at least one"):
            TraceWorkload((), name="empty")


# ------------------------------------------------------------------------
# Zipf generation
# ------------------------------------------------------------------------

SMALL_ZIPF = dict(footprint_bytes=1 * MIB, requests=96, segments=16)


class TestZipf:
    def test_generation_is_deterministic(self):
        params = ZipfParams(**SMALL_ZIPF)
        assert generate_zipf_rows(params) == generate_zipf_rows(params)

    def test_seed_changes_the_stream(self):
        a = generate_zipf_rows(ZipfParams(seed=1, **SMALL_ZIPF))
        b = generate_zipf_rows(ZipfParams(seed=2, **SMALL_ZIPF))
        assert a != b

    def test_hot_fraction_concentrates_traffic(self):
        params = ZipfParams(theta=1.2, hot_fraction=0.1, **SMALL_ZIPF)
        rows = generate_zipf_rows(params)
        hot_sectors = (params.footprint_bytes // 512) * params.hot_fraction
        hot = sum(1 for row in rows if row.lba < hot_sectors)
        # With theta=1.2 the top-ranked (hot-packed) segments absorb far
        # more than the uniform expectation (hot_fraction = 0.1).
        assert hot / len(rows) > 4 * params.hot_fraction

    def test_read_fraction_zero_and_one(self):
        writes = generate_zipf_rows(ZipfParams(read_fraction=0.0,
                                               **SMALL_ZIPF))
        reads = generate_zipf_rows(ZipfParams(read_fraction=1.0,
                                              **SMALL_ZIPF))
        assert all(row.is_write for row in writes)
        assert not any(row.is_write for row in reads)

    def test_describe_covers_every_field(self):
        params = ZipfParams()
        description = params.describe()
        for spec_field in dataclasses.fields(params):
            assert f"{spec_field.name}=" in description

    @pytest.mark.parametrize("kwargs", [
        dict(theta=-0.1), dict(hot_fraction=0.0), dict(hot_fraction=1.0),
        dict(read_fraction=1.5), dict(requests=0), dict(request_sectors=0),
        dict(segments=1), dict(sequential_burst=-0.2),
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            ZipfParams(**kwargs)

    @given(seed=st.integers(min_value=0, max_value=2**31),
           theta=st.sampled_from([0.5, 0.99, 1.2]),
           read_fraction=st.sampled_from([0.0, 0.5, 0.7, 1.0]))
    @settings(max_examples=25, deadline=None)
    def test_same_params_rebuild_bit_identical_programs(self, seed, theta,
                                                        read_fraction):
        params = ZipfParams(seed=seed, theta=theta,
                            read_fraction=read_fraction, **SMALL_ZIPF)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScaleFloorWarning)
            a = ZipfWorkload(scale=0.5, params=params)
            b = ZipfWorkload(scale=0.5, params=params)
            assert a.rows == b.rows
            assert a.cache_identity() == b.cache_identity()
            pa, pb = a.build_program(), b.build_program()
        assert [(loop.name, loop.trip_count) for loop in pa.loops] == \
            [(loop.name, loop.trip_count) for loop in pb.loops]
        assert pa.footprint_bytes() == pb.footprint_bytes()


# ------------------------------------------------------------------------
# Open registry
# ------------------------------------------------------------------------


class TestOpenRegistry:
    def test_builtin_entries_registered(self):
        names = available_workloads()
        assert ZIPF_HOT_NAME in names and MQSIM_MINI_NAME in names
        # The paper's six stay first, in figure order.
        assert names[:6] == tuple(w.name for w in ALL_WORKLOADS)

    def test_duplicate_registration_rejected(self, scratch_registry):
        with pytest.raises(ValueError, match="already registered"):
            register_workload(ZIPF_HOT_NAME, ZipfWorkload)
        register_workload(ZIPF_HOT_NAME, ZipfWorkload, overwrite=True)

    def test_registered_workload_builds_by_name(self, scratch_registry):
        params = ZipfParams(seed=7, **SMALL_ZIPF)
        register_workload("zipf-test",
                          zipf_workload_factory(params, name="zipf-test"))
        workload = workload_by_name("zipf-test", scale=TINY_SCALE)
        assert isinstance(workload, ZipfWorkload)
        assert workload.params == params
        assert "zipf-test" in available_workloads()

    def test_register_trace_workload_names_from_stem(self, scratch_registry,
                                                     tmp_path):
        path = tmp_path / "custom.trace"
        path.write_text("0 0 0 256 1\n100 0 256 256 1\n")
        name = register_trace_workload(str(path))
        assert name == "custom"
        workload = workload_by_name("custom", scale=TINY_SCALE)
        assert len(workload.rows) == 2

    def test_registered_entry_appears_in_repro_list(self, scratch_registry,
                                                    capsys):
        register_workload("zipf-test", zipf_workload_factory(
            ZipfParams(**SMALL_ZIPF), name="zipf-test"))
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "zipf-test" in out
        assert ZIPF_HOT_NAME in out and MQSIM_MINI_NAME in out

    def test_tenant_mix_can_name_registered_workloads(self):
        tenant = TenantSpec(name="skewed",
                            mix=((ZIPF_HOT_NAME, 2.0),
                                 (MQSIM_MINI_NAME, 1.0)))
        assert tenant.workloads() == (ZIPF_HOT_NAME, MQSIM_MINI_NAME)

    def test_serial_and_parallel_sweeps_are_bit_identical(self, tiny_config,
                                                          scratch_registry):
        register_workload("zipf-test", zipf_workload_factory(
            ZipfParams(seed=11, **SMALL_ZIPF), name="zipf-test"))
        workloads = [workload_by_name("zipf-test", scale=TINY_SCALE),
                     workload_by_name(MQSIM_MINI_NAME, scale=TINY_SCALE)]
        serial = ExperimentRunner(tiny_config).sweep(
            ("CPU", "Conduit"), workloads, parallel=False)
        parallel = ExperimentRunner(tiny_config).sweep(
            ("CPU", "Conduit"), workloads, parallel=True, workers=2)
        assert list(serial) == list(parallel)
        for key in serial:
            assert result_fingerprint(serial[key]) == \
                result_fingerprint(parallel[key])


# ------------------------------------------------------------------------
# Cache-key identity folding
# ------------------------------------------------------------------------


class TestCacheKeyIdentity:
    def test_workload_params_perturb_the_key(self):
        base = RunSpec(workload="t", scale=TINY_SCALE, policy="CPU")
        with_params = dataclasses.replace(
            base, workload_params=(("trace", "deadbeef"),))
        other_params = dataclasses.replace(
            base, workload_params=(("trace", "cafef00d"),))
        assert run_spec_key(base) != run_spec_key(with_params)
        assert run_spec_key(with_params) != run_spec_key(other_params)

    def test_spec_for_folds_the_cache_identity(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        workload = workload_by_name(ZIPF_HOT_NAME, scale=TINY_SCALE)
        spec = runner.spec_for(workload, "CPU")
        assert spec.workload_params == workload.cache_identity()
        assert spec.workload_params[0][0] == "zipf"

    def test_zipf_params_change_the_key(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        a = ZipfWorkload(scale=TINY_SCALE, params=ZipfParams(seed=1),
                         name=ZIPF_HOT_NAME)
        b = ZipfWorkload(scale=TINY_SCALE, params=ZipfParams(seed=2),
                         name=ZIPF_HOT_NAME)
        assert run_spec_key(runner.spec_for(a, "CPU")) != \
            run_spec_key(runner.spec_for(b, "CPU"))

    def test_trace_content_changes_the_key(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        rows = load_mqsim_trace(fixture_trace_path())
        a = TraceWorkload(rows, name="t", scale=TINY_SCALE)
        b = TraceWorkload(rows[:-1], name="t", scale=TINY_SCALE)
        assert run_spec_key(runner.spec_for(a, "CPU")) != \
            run_spec_key(runner.spec_for(b, "CPU"))

    def test_worker_rejects_stale_identity(self):
        spec = RunSpec(workload=ZIPF_HOT_NAME, scale=TINY_SCALE,
                       policy="CPU",
                       workload_params=(("zipf", "stale-params"),))
        with pytest.raises(ValueError, match="registry entry changed"):
            execute_run_spec(spec)

    def test_parallel_sweep_rejects_mismatched_instance(self, tiny_config):
        # An instance whose identity no longer matches its registry entry
        # must be caught before any worker runs it.
        runner = ExperimentRunner(tiny_config)
        impostor = ZipfWorkload(scale=TINY_SCALE,
                                params=ZipfParams(seed=999),
                                name=ZIPF_HOT_NAME)
        with pytest.raises(ValueError, match="no longer matches"):
            runner.sweep(("CPU",), [impostor], parallel=True, workers=1)


# ------------------------------------------------------------------------
# CLI and experiment wiring
# ------------------------------------------------------------------------


class TestCLIWiring:
    def test_scale_help_derives_from_the_single_constant(self):
        assert ExperimentConfig().workload_scale == DEFAULT_WORKLOAD_SCALE
        parser = build_parser()
        subparsers = next(action for action in parser._actions
                          if getattr(action, "choices", None)
                          and "run" in action.choices)
        for command in ("run", "compare"):
            help_text = subparsers.choices[command].format_help()
            assert f"default: {DEFAULT_WORKLOAD_SCALE}" in help_text

    def test_with_traces_widens_the_workload_axis(self, scratch_registry):
        from repro.__main__ import _with_traces
        from repro.experiments import experiment_def
        definition = _with_traces(experiment_def("fig10"),
                                  [fixture_trace_path()])
        assert definition.workloads[-1] == "mini_mqsim"
        assert "mini_mqsim" in WORKLOAD_REGISTRY
        # Idempotent: the same command re-registers without erroring.
        again = _with_traces(definition, [fixture_trace_path()])
        assert again.workloads.count("mini_mqsim") == 1

    def test_trace_flag_extends_the_sweep(self, scratch_registry, capsys,
                                          tmp_path):
        cache_dir = str(tmp_path / "cache")
        # fig10 sweeps 1 workload x 3 policies; --trace widens it to 2 x 3.
        rc = cli_main(["run", "fig10", "--scale", "0.05", "--serial",
                       "--cache-dir", cache_dir, "-v",
                       "--trace", fixture_trace_path()])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pairs=6" in out
        assert "mini_mqsim" in WORKLOAD_REGISTRY

    def test_trace_flag_rejects_composites(self, scratch_registry, capsys):
        rc = cli_main(["run", "report", "--trace", fixture_trace_path()])
        err = capsys.readouterr().err
        assert rc == 2
        assert "composite" in err

    def test_trace_flag_reports_missing_file(self, capsys, tmp_path):
        rc = cli_main(["run", "fig10",
                       "--trace", str(tmp_path / "missing.trace")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "missing.trace" in err

    def test_trace_flag_reports_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("100 0 0 8 X\n")
        rc = cli_main(["run", "fig10", "--trace", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "bad.trace:1" in err
        assert "opcode" in err

    def test_traces_experiment_runs_tiny(self, tiny_config):
        result = run_experiment("traces", tiny_config, parallel=False)
        assert "fresh-vs-aged" in result.sections
        assert "default/uniform-vs-skewed" in result.sections
        names = {row["workload"]
                 for row in result.sections["fresh-vs-aged"]}
        assert ZIPF_HOT_NAME in names and MQSIM_MINI_NAME in names
        assert result.headline  # the skew/age comparison lines
