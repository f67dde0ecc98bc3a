"""Tests for the declarative experiment API and the ``python -m repro`` CLI.

Covers the three objects the API redesign introduced:

* the platform-variant registry (``PLATFORM_VARIANTS``), including
  user-registered variants and unknown-name error messages;
* the platform axis of ``ExperimentRunner.sweep`` -- cross-product grids,
  serial == parallel bit-identity, label-free cache keys shared across
  variants and experiments;
* the experiment registry + ``run_experiment`` engine + CLI -- a smoke run
  of every registered experiment at tiny scale through ``repro run``,
  multi-platform section grids, sweep-stats surfacing (``-v``), JSON
  output and unknown-experiment/variant exit paths.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.__main__ import (PACKAGE_DIR, PROFILE_PHASES, profile_phase,
                            profile_phase_totals)
from repro.__main__ import main as cli_main
from repro.common import MIB
from repro.core.platform import PlatformConfig, backend_roster
from repro.dram.cxl import CXLPuDConfig
from repro.experiments import (EXPERIMENT_REGISTRY, ExperimentConfig,
                               ExperimentDef, ExperimentRunner,
                               available_experiments,
                               available_platform_variants, experiment_def,
                               per_platform, platform_variant,
                               register_experiment,
                               register_platform_variant, run_experiment,
                               run_spec_key)
from repro.experiments.registry import RESULT_SCHEMA_VERSION
from repro.experiments.platforms import (MULTICORE_ISP_CORES,
                                         PLATFORM_VARIANTS)
from repro.ssd.config import small_ssd_config
from repro.workloads import Jacobi1DWorkload

TINY_SCALE = 0.03

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Scale the CLI smoke runs use (full experiment platform, so keep small).
CLI_SCALE = 0.05


@pytest.fixture(scope="module")
def tiny_config() -> ExperimentConfig:
    platform = PlatformConfig(ssd=small_ssd_config(),
                              dram_compute_window_bytes=1 * MIB,
                              sram_window_bytes=256 * 1024,
                              host_cache_bytes=1 * MIB)
    return ExperimentConfig(workload_scale=TINY_SCALE, platform=platform)


@pytest.fixture(scope="module")
def cli_cache_dir(tmp_path_factory) -> str:
    """One cache shared by every CLI smoke run, so common pairs run once."""
    return str(tmp_path_factory.mktemp("cli_sweep_cache"))


def result_fingerprint(result):
    return (result.workload, result.policy, result.total_time_ns,
            result.total_energy_nj, result.energy.compute_nj,
            result.energy.data_movement_nj,
            tuple((r.uid, r.op, r.resource, r.dispatch_ns, r.end_ns)
                  for r in result.records))


class TestPlatformVariants:
    def test_builtin_variants_registered(self):
        names = available_platform_variants()
        assert ("default", "multicore-isp", "cxl-pud") == names[:3]

    def test_default_variant_is_identity(self, tiny_config):
        assert platform_variant(
            "default", base=tiny_config.platform) == tiny_config.platform

    def test_multicore_variant_grows_isp_cores(self, tiny_config):
        grown = platform_variant("multicore-isp", base=tiny_config.platform)
        assert grown.isp_cores == MULTICORE_ISP_CORES
        assert any(name.startswith("isp[") for name in backend_roster(grown))

    def test_cxl_variant_enables_the_tier(self, tiny_config):
        grown = platform_variant("cxl-pud", base=tiny_config.platform)
        assert grown.cxl_pud is not None
        assert "cxl-pud" in backend_roster(grown)

    def test_feedback_variants_registered(self, tiny_config):
        for name in ("default-feedback", "multicore-isp-feedback",
                     "cxl-pud-feedback"):
            assert name in available_platform_variants()
            grown = platform_variant(name, base=tiny_config.platform)
            assert grown.contention_feedback is True
        cxl = platform_variant("cxl-pud-feedback", base=tiny_config.platform)
        assert cxl.cxl_pud is not None
        multicore = platform_variant("multicore-isp-feedback",
                                     base=tiny_config.platform)
        assert multicore.isp_cores == MULTICORE_ISP_CORES

    def test_unknown_variant_lists_known_names(self):
        with pytest.raises(ValueError, match="unknown platform variant"):
            platform_variant("no-such-shape")
        with pytest.raises(ValueError, match="multicore-isp"):
            platform_variant("no-such-shape")

    def test_user_registered_variant_is_sweepable(self, tiny_config):
        def fast_cxl(base):
            return dataclasses.replace(
                base, cxl_pud=CXLPuDConfig(link_latency_ns=100.0))

        register_platform_variant("fast-cxl", fast_cxl)
        try:
            assert "fast-cxl" in available_platform_variants()
            with pytest.raises(ValueError, match="already registered"):
                register_platform_variant("fast-cxl", fast_cxl)
            runner = ExperimentRunner(tiny_config)
            grid = runner.sweep(("Conduit",),
                                [Jacobi1DWorkload(scale=TINY_SCALE)],
                                platforms=("fast-cxl",))
            assert ("jacobi-1d", "Conduit", "fast-cxl") in grid
        finally:
            PLATFORM_VARIANTS.pop("fast-cxl", None)


class TestPlatformAxisSweep:
    POLICIES = ("CPU", "Conduit")
    PLATFORMS = ("default", "cxl-pud")

    def test_cross_product_keys_and_order(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        workloads = [Jacobi1DWorkload(scale=TINY_SCALE)]
        grid = runner.sweep(self.POLICIES, workloads,
                            platforms=self.PLATFORMS)
        assert list(grid) == [
            ("jacobi-1d", policy, platform)
            for policy in self.POLICIES for platform in self.PLATFORMS
        ]
        assert runner.last_sweep_stats.pairs == 4
        assert runner.last_sweep_stats.platforms == 2

    def test_serial_parallel_bit_identity(self, tiny_config):
        workloads = [Jacobi1DWorkload(scale=TINY_SCALE)]
        serial = ExperimentRunner(tiny_config).sweep(
            self.POLICIES, workloads, platforms=self.PLATFORMS)
        parallel = ExperimentRunner(tiny_config).sweep(
            self.POLICIES, workloads, platforms=self.PLATFORMS,
            parallel=True, workers=2)
        assert list(serial) == list(parallel)
        for key in serial:
            assert (result_fingerprint(serial[key]) ==
                    result_fingerprint(parallel[key])), key

    def test_platform_label_is_not_part_of_the_cache_key(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        workload = Jacobi1DWorkload(scale=TINY_SCALE)
        labelled = runner.spec_for(workload, "Conduit",
                                   platform=tiny_config.platform,
                                   platform_name="some-label")
        plain = runner.spec_for(workload, "Conduit")
        assert labelled != plain
        assert run_spec_key(labelled) == run_spec_key(plain)

    def test_axis_sweep_shares_cache_with_plain_sweep(self, tiny_config,
                                                      tmp_path):
        cache_dir = str(tmp_path / "cache")
        workloads = [Jacobi1DWorkload(scale=TINY_SCALE)]
        runner = ExperimentRunner(tiny_config)
        runner.sweep(self.POLICIES, workloads, platforms=("default",),
                     cache_dir=cache_dir)
        assert runner.last_sweep_stats.executed == 2
        # A plain (no platform axis) sweep of the same shape is served
        # entirely from the axis sweep's entries: the variant label is
        # excluded from the key, the configuration is what matters.
        fresh = ExperimentRunner(tiny_config)
        fresh.sweep(self.POLICIES, workloads, cache_dir=cache_dir)
        assert fresh.last_sweep_stats.cache_hits == 2
        assert fresh.last_sweep_stats.executed == 0

    def test_duplicate_variant_rejected(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        with pytest.raises(ValueError, match="duplicate platform variant"):
            runner.sweep(("CPU",), [Jacobi1DWorkload(scale=TINY_SCALE)],
                         platforms=("default", "default"))

    def test_empty_axis_rejected(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        with pytest.raises(ValueError, match="at least one"):
            runner.sweep(("CPU",), [Jacobi1DWorkload(scale=TINY_SCALE)],
                         platforms=())


class TestExperimentRegistry:
    def test_every_definition_is_well_formed(self):
        for name, definition in EXPERIMENT_REGISTRY.items():
            assert definition.name == name
            assert definition.title
            assert definition.build is not None or definition.composite
            assert definition.axes_summary()

    def test_expected_builtins_present(self):
        assert {"fig4", "fig5", "fig7", "fig8", "fig9", "fig10", "table3",
                "overheads", "backend_ablation", "contention",
                "cost_ablation", "coherence_ablation",
                "vector_width_ablation",
                "report"} <= set(available_experiments())

    def test_report_composite_covers_the_whole_evaluation(self, tiny_config):
        # The full-report section set the old CI script asserted; a member
        # dropped from the composite must fail here, not silently shrink
        # the published report.
        assert experiment_def("report").composite == (
            "table3", "fig4", "fig5", "fig7", "fig8", "fig9", "fig10",
            "overheads")
        sections = run_experiment("report", tiny_config,
                                  parallel=False).formatted()
        assert set(sections) == {"table3", "fig4", "fig5", "fig7a", "fig7b",
                                 "fig8", "fig9", "fig10", "overheads"}
        assert all(text.strip() and text != "(no rows)"
                   for text in sections.values())

    def test_unknown_experiment_lists_available(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            experiment_def("fig99")
        with pytest.raises(ValueError, match="fig7"):
            experiment_def("fig99")

    def test_register_rejects_silent_overwrite(self):
        with pytest.raises(ValueError, match="already registered"):
            register_experiment(ExperimentDef(
                name="fig7", title="imposter",
                build=lambda ctx: {}))

    def test_run_experiment_sections_and_stats(self, tiny_config):
        result = run_experiment("fig8", tiny_config, parallel=False)
        assert list(result.sections) == ["fig8"]
        rows = result.sections["fig8"]
        assert len(rows) == 8  # 2 workloads x 4 policies
        assert all(row["p9999_us"] >= row["p99_us"] > 0 for row in rows)
        (name, stats), = result.stats
        assert name == "fig8"
        assert stats.pairs == 8

    def test_multi_platform_run_prefixes_sections(self, tiny_config):
        result = run_experiment("fig10", tiny_config,
                                platforms=("default", "cxl-pud"),
                                parallel=False)
        assert list(result.sections) == ["default/fig10", "cxl-pud/fig10"]
        assert result.stats[0][1].pairs == 6  # 1 workload x 3 pol x 2 plat
        # The per-variant grids come from the one cross-product sweep.
        default = result.platform_grid("default")
        grown = result.platform_grid("cxl-pud")
        assert set(default) == set(grown)
        assert len(result.grid) == len(default) + len(grown)

    def test_ablation_is_a_platform_axis_sweep(self, tiny_config):
        result = run_experiment("backend_ablation", tiny_config,
                                parallel=False)
        rows = result.sections["ablation"]
        assert {row["roster"] for row in rows} == {"default",
                                                   "multicore-isp",
                                                   "cxl-pud"}
        assert result.stats[0][1].platforms == 3
        # The speedup column normalizes against the default roster even
        # though it is not the first variant alphabetically; its own
        # speedup is exactly 1.
        for row in rows:
            if row["roster"] == "default":
                assert row["speedup_vs_default"] == 1.0

    def test_design_ablations_are_registered_experiments(self, tiny_config):
        # The cost-model / coherence / vector-width ablations, formerly
        # hand-rolled in benchmarks/test_bench_ablations.py, run through
        # the registry like every other experiment.
        cost = run_experiment("cost_ablation", tiny_config, parallel=False)
        variants = [row["variant"] for row in cost.sections["cost_ablation"]]
        assert variants == ["full", "no-queueing-delay", "no-data-movement",
                            "no-dependence-delay", "sum-of-delays"]
        coherence = run_experiment("coherence_ablation", tiny_config,
                                   parallel=False)
        rows = coherence.sections["coherence_ablation"]
        assert [row["coherence"] for row in rows] == ["lazy", "strict"]
        strict = next(row for row in rows if row["coherence"] == "strict")
        lazy = next(row for row in rows if row["coherence"] == "lazy")
        assert strict["flushes"] >= lazy["flushes"]
        widths = run_experiment("vector_width_ablation", tiny_config,
                                parallel=False)
        rows = widths.sections["vector_width_ablation"]
        assert [row["vector_width"] for row in rows] == [4096, 1024, 256]
        assert rows[-1]["instructions"] > rows[0]["instructions"]

    def test_contention_experiment_pairs_feedback_variants(self,
                                                           tiny_config):
        result = run_experiment("contention", tiny_config, parallel=False)
        rows = result.sections["contention"]
        # One row per (workload, base roster); the feedback twin's numbers
        # ride along in the same row.
        assert {row["roster"] for row in rows} == {"default",
                                                   "multicore-isp",
                                                   "cxl-pud"}
        for row in rows:
            assert row["greedy_ms"] > 0
            assert row["feedback_ms"] > 0
            assert row["host_ms"] > 0
            assert row["feedback_speedup"] == pytest.approx(
                row["greedy_ms"] / row["feedback_ms"])
        assert result.stats[0][1].platforms == 6

    def test_contention_experiment_survives_platform_override(self,
                                                              tiny_config):
        # A lone base roster (no twin swept) still renders, with the
        # feedback columns absent rather than a KeyError.
        result = run_experiment("contention", tiny_config,
                                platforms=("cxl-pud",), parallel=False)
        rows = result.sections["contention"]
        assert rows and all("feedback_ms" not in row for row in rows)
        # A lone feedback variant is reported as its own roster.
        result = run_experiment("contention", tiny_config,
                                platforms=("cxl-pud-feedback",),
                                parallel=False)
        rows = result.sections["contention"]
        assert {row["roster"] for row in rows} == {"cxl-pud-feedback"}

    def test_ablation_baseline_follows_the_swept_axis(self, tiny_config):
        # Without the default roster in the run, the column is relabelled
        # after the variant actually used as the baseline.
        result = run_experiment("backend_ablation", tiny_config,
                                platforms=("cxl-pud", "multicore-isp"),
                                parallel=False)
        rows = result.sections["ablation"]
        assert all("speedup_vs_cxl-pud" in row for row in rows)

    def test_duplicate_platforms_rejected_by_engine(self, tiny_config):
        with pytest.raises(ValueError, match="duplicate platform variant"):
            run_experiment("fig10", tiny_config,
                           platforms=("default", "default"),
                           parallel=False)

    def test_result_platform_grid_rejects_unswept_name(self, tiny_config):
        result = run_experiment("fig10", tiny_config,
                                platforms=("cxl-pud",), parallel=False)
        with pytest.raises(ValueError, match="not part of this result"):
            result.platform_grid("default")

    def test_ad_hoc_definition_runs_unregistered(self, tiny_config):
        definition = ExperimentDef(
            name="adhoc", title="ad-hoc",
            policies=("CPU", "Conduit"),
            workloads=(Jacobi1DWorkload.name,),
            build=per_platform(lambda ctx, name, grid: {
                "adhoc": [{"pairs": len(grid)}]}))
        result = run_experiment(definition, tiny_config, parallel=False)
        assert result.sections["adhoc"] == [{"pairs": 2}]
        assert "adhoc" not in EXPERIMENT_REGISTRY


class TestCLI:
    @pytest.mark.parametrize("experiment", sorted(EXPERIMENT_REGISTRY))
    def test_run_smoke_every_registry_entry(self, experiment, capsys,
                                            cli_cache_dir):
        rc = cli_main(["run", experiment, "--scale", str(CLI_SCALE),
                       "--serial", "--cache-dir", cli_cache_dir])
        out = capsys.readouterr().out
        assert rc == 0
        assert "== " in out  # at least one formatted section

    @pytest.mark.parametrize("command", [
        ["run", "bogus-policy"],
        ["compare", "bogus-policy", "default", "cxl-pud"]])
    def test_failing_unit_is_named_on_the_error_line(self, command, capsys,
                                                     monkeypatch):
        definition = ExperimentDef(
            name="bogus-policy", title="bogus", policies=("No-Such-Policy",),
            workloads=(Jacobi1DWorkload.name,),
            build=per_platform(lambda ctx, name, grid: {}))
        monkeypatch.setitem(EXPERIMENT_REGISTRY, definition.name, definition)
        rc = cli_main([*command, "--scale", str(CLI_SCALE), "--serial",
                       "--no-cache"])
        err = capsys.readouterr().err
        assert rc == 2
        line = next(line for line in err.splitlines()
                    if line.startswith("error:"))
        assert "unknown offloading policy 'No-Such-Policy'" in line
        assert "workload 'jacobi-1d'" in line
        assert "platform 'default'" in line

    def test_list_names_experiments_and_variants(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENT_REGISTRY:
            assert name in out
        for variant in ("default", "multicore-isp", "cxl-pud"):
            assert variant in out

    def test_verbose_surfaces_sweep_stats(self, capsys, cli_cache_dir):
        rc = cli_main(["run", "fig8", "--scale", str(CLI_SCALE), "--serial",
                       "--cache-dir", cli_cache_dir, "-v"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[sweep fig8]" in out
        assert "pairs=8" in out
        assert "cache_hits=" in out and "workers=" in out

    def test_platform_axis_from_the_cli(self, capsys, cli_cache_dir):
        rc = cli_main(["run", "fig10", "--scale", str(CLI_SCALE), "--serial",
                       "--cache-dir", cli_cache_dir,
                       "--platform", "default", "--platform", "cxl-pud"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "== default/fig10 ==" in out
        assert "== cxl-pud/fig10 ==" in out

    def test_json_output(self, capsys, cli_cache_dir, tmp_path):
        out_path = tmp_path / "fig8.json"
        rc = cli_main(["run", "fig8", "--scale", str(CLI_SCALE), "--serial",
                       "--cache-dir", cli_cache_dir, "--json",
                       str(out_path)])
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["experiment"] == "fig8"
        assert payload["sections"]["fig8"]
        assert payload["sweeps"][0]["pairs"] == 8

    def test_json_schema_version_pinned(self, capsys, cli_cache_dir,
                                        tmp_path):
        """The JSON document is versioned and the version is pinned.

        The literal ``1`` is deliberate (not imported): changing the
        document layout must both bump ``RESULT_SCHEMA_VERSION`` and
        consciously update this pin, mirroring the benchmark-record
        schema test.
        """
        out_path = tmp_path / "fig8.json"
        rc = cli_main(["run", "fig8", "--scale", str(CLI_SCALE), "--serial",
                       "--cache-dir", cli_cache_dir, "--json",
                       str(out_path)])
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == 1
        assert payload["schema"] == RESULT_SCHEMA_VERSION

    def test_profile_prints_phase_breakdown(self, capsys):
        rc = cli_main(["run", "fig8", "--scale", str(CLI_SCALE),
                       "--profile"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[profile] phase breakdown" in out
        for phase in ("collect", "compile", "decide", "transform",
                      "dispatch", "move", "maintenance", "execute", "other",
                      "total"):
            assert f"[profile]   {phase}" in out

    def test_profile_phase_fragments_name_real_sources(self):
        sources = [path.relative_to(SOURCE_ROOT).as_posix()
                   for path in SOURCE_ROOT.rglob("*.py")]
        for phase, fragments in PROFILE_PHASES:
            for fragment in fragments:
                assert any(fragment in source for source in sources), (
                    f"--profile rule {phase!r} fragment {fragment!r} "
                    "matches no file under src/repro")

    @pytest.mark.parametrize("source,phase", [
        ("dram/pud.py", "execute"), ("dram/cxl.py", "execute"),
        ("dram/dram.py", "move"), ("ssd/flash_controller.py", "move"),
        ("ssd/nand.py", "execute"), ("core/offload/features.py", "collect"),
        ("experiments/runner.py", "other"),
        ("core/compiler/vectorizer.py", "compile"),
        ("core/compiler/waves.py", "collect"),
        ("workloads/traces/zipf.py", "compile"),
        ("ssd/lifetime/aging.py", "maintenance"),
        ("ssd/lifetime/engine.py", "maintenance"),
        ("ssd/gc.py", "maintenance"), ("ssd/wear_leveling.py", "maintenance"),
        ("ssd/ftl.py", "execute"), ("core/runtime.py", "dispatch"),
    ])
    def test_profile_phase_of_source(self, source, phase):
        assert profile_phase(str(SOURCE_ROOT / source)) == phase

    def test_profile_books_builtins_to_their_callers_phase(self):
        """A builtin's time follows its callers, weighted by the time
        each caller's calls spent in it; a library frame in between
        passes its part on to its own ``repro`` caller."""
        runtime = (PACKAGE_DIR + "core/runtime.py", 10, "drive")
        platform = (PACKAGE_DIR + "core/platform.py", 20, "ensure")
        library = ("/usr/lib/python3/heapq.py", 30, "merge")
        builtin = ("~", 0, "<built-in method builtins.min>")
        orphan = ("~", 0, "<built-in method builtins.exec>")
        stats = {
            runtime: (1, 1, 1.0, 5.0, {}),
            platform: (2, 2, 2.0, 4.0, {runtime: (2, 2, 2.0, 4.0)}),
            library: (1, 1, 0.5, 0.9, {platform: (1, 1, 0.5, 0.9)}),
            # 3 s of min(): 1 s from the runtime, 1.6 s from the
            # platform and 0.4 s from the library frame.
            builtin: (9, 9, 3.0, 3.0, {runtime: (3, 3, 1.0, 1.0),
                                        platform: (5, 5, 1.6, 1.6),
                                        library: (1, 1, 0.4, 0.4)}),
            orphan: (1, 1, 0.25, 9.0, {}),
        }
        totals = profile_phase_totals(stats)
        assert totals["dispatch"] == pytest.approx(1.0 + 1.0)
        assert totals["move"] == pytest.approx(2.0 + 1.6 + 0.5 + 0.4)
        assert totals["other"] == pytest.approx(0.25)
        assert sum(totals.values()) == pytest.approx(
            sum(entry[2] for entry in stats.values()))

    def test_profile_leaves_library_recursion_as_other(self):
        left = ("/usr/lib/python3/copy.py", 1, "deepcopy")
        right = ("/usr/lib/python3/copy.py", 2, "_deepcopy_dict")
        stats = {left: (2, 1, 1.0, 2.0, {right: (1, 1, 0.5, 1.0)}),
                 right: (1, 1, 1.0, 2.0, {left: (1, 1, 1.0, 2.0)})}
        totals = profile_phase_totals(stats)
        assert totals["other"] == pytest.approx(2.0)

    @pytest.mark.parametrize("command", [["run", "fig8"],
                                         ["compare", "fig8", "default",
                                          "default-feedback"]],
                             ids=["run", "compare"])
    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_bad_scale_is_a_usage_error(self, command, scale, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main([*command, f"--scale={scale}", "--no-cache"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--scale" in err
        assert repr(scale) in err

    def test_unknown_experiment_exit_code_and_message(self, capsys):
        rc = cli_main(["run", "fig99", "--no-cache"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown experiment 'fig99'" in captured.err
        assert "fig7" in captured.err  # the message lists what exists

    def test_unknown_variant_exit_code_and_message(self, capsys):
        rc = cli_main(["run", "fig7", "--platform", "warp-drive",
                       "--no-cache"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown platform variant 'warp-drive'" in captured.err
        assert "cxl-pud" in captured.err


class TestCompareCLI:
    """``python -m repro compare`` and its pinned JSON document schema."""

    #: Per-row keys of the version-1 comparison document.  The literal
    #: tuple is deliberate: adding/removing a key must bump
    #: ``COMPARE_SCHEMA_VERSION`` and consciously update this pin.
    ROW_KEYS = ("workload", "policy", "base_ms", "other_ms", "time_ratio",
                "base_energy_mj", "other_energy_mj", "energy_ratio",
                "base_gc_pages", "other_gc_pages")

    def test_compare_json_document_schema(self, capsys, cli_cache_dir,
                                          tmp_path):
        from repro.experiments import COMPARE_SCHEMA_VERSION
        out_path = tmp_path / "compare.json"
        rc = cli_main(["compare", "fig8", "default", "default-feedback",
                       "--scale", str(CLI_SCALE), "--serial",
                       "--cache-dir", cli_cache_dir, "--json",
                       str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig8: default vs default-feedback" in out
        assert "geomean time ratio" in out
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == 1
        assert payload["schema"] == COMPARE_SCHEMA_VERSION
        assert payload["experiment"] == "fig8"
        assert payload["base"] == "default"
        assert payload["other"] == "default-feedback"
        assert payload["rows"]
        for row in payload["rows"]:
            assert sorted(row) == sorted(self.ROW_KEYS)
            assert row["base_ms"] > 0 and row["other_ms"] > 0
        summary = payload["summary"]
        assert summary["pairs"] == len(payload["rows"])
        for key in ("geomean_time_ratio", "geomean_energy_ratio",
                    "max_time_ratio", "max_time_ratio_pair"):
            assert key in summary

    def test_compare_is_symmetric_in_ratio(self, cli_cache_dir, capsys,
                                           tmp_path):
        """Swapping base/other inverts every ratio (same cached sweep)."""
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        for path, pair in ((a_path, ("default", "default-feedback")),
                           (b_path, ("default-feedback", "default"))):
            rc = cli_main(["compare", "fig8", *pair,
                           "--scale", str(CLI_SCALE), "--serial",
                           "--cache-dir", cli_cache_dir, "--json",
                           str(path)])
            assert rc == 0
        capsys.readouterr()
        forward = json.loads(a_path.read_text())
        backward = json.loads(b_path.read_text())
        by_key = {(r["workload"], r["policy"]): r for r in backward["rows"]}
        for row in forward["rows"]:
            reverse = by_key[(row["workload"], row["policy"])]
            assert row["time_ratio"] == pytest.approx(
                1.0 / reverse["time_ratio"])

    def test_compare_rejects_identity_and_composites(self, capsys):
        assert cli_main(["compare", "fig8", "default", "default",
                         "--no-cache"]) == 2
        assert "no-op" in capsys.readouterr().err
        assert cli_main(["compare", "report", "default",
                         "default-feedback", "--no-cache"]) == 2
        assert "policy-sweeping" in capsys.readouterr().err


class TestCompareGrids:
    """Ratio edge cases of :func:`compare_grids` and its summary block."""

    @staticmethod
    def _result(time_ns: float, energy_nj: float):
        from repro.core.metrics import ExecutionBreakdown, ExecutionResult
        from repro.energy.model import EnergyBreakdown
        return ExecutionResult(
            workload="w", policy="p", total_time_ns=time_ns, records=[],
            energy=EnergyBreakdown(compute_nj=energy_nj,
                                   data_movement_nj=0.0, per_resource_nj={},
                                   per_transfer_kind_nj={}),
            breakdown=ExecutionBreakdown())

    def test_zero_over_zero_is_one_not_inf(self):
        # Regression: 0/0 used to report inf ("infinitely slower") for a
        # pair where literally nothing changed.
        from repro.experiments import compare_grids
        rows = compare_grids({("w", "p"): self._result(0.0, 0.0)},
                             {("w", "p"): self._result(0.0, 0.0)})
        assert rows[0]["time_ratio"] == 1.0
        assert rows[0]["energy_ratio"] == 1.0

    def test_nonzero_over_zero_is_still_inf(self):
        from repro.experiments import compare_grids
        rows = compare_grids({("w", "p"): self._result(0.0, 0.0)},
                             {("w", "p"): self._result(5.0, 5.0)})
        assert rows[0]["time_ratio"] == float("inf")
        assert rows[0]["energy_ratio"] == float("inf")

    def test_ordinary_ratio_is_other_over_base(self):
        from repro.experiments import compare_grids
        rows = compare_grids({("w", "p"): self._result(2.0, 4.0)},
                             {("w", "p"): self._result(6.0, 2.0)})
        assert rows[0]["time_ratio"] == pytest.approx(3.0)
        assert rows[0]["energy_ratio"] == pytest.approx(0.5)

    def test_summary_geomeans_exclude_infinite_rows(self):
        # Regression: one x/0 row used to poison the whole geomean into
        # inf, hiding every finite pair's contribution.
        import math
        from repro.experiments import compare_grids
        from repro.experiments.compare import _summary
        base = {("a", "p"): self._result(1.0, 1.0),
                ("b", "p"): self._result(0.0, 0.0)}
        other = {("a", "p"): self._result(2.0, 2.0),
                 ("b", "p"): self._result(5.0, 5.0)}
        summary = _summary(compare_grids(base, other))
        assert summary["pairs"] == 2
        assert math.isfinite(summary["geomean_time_ratio"])
        assert summary["geomean_time_ratio"] == pytest.approx(2.0)
        assert summary["geomean_energy_ratio"] == pytest.approx(2.0)
        # The per-row blow-up still surfaces as the worst pair.
        assert summary["max_time_ratio"] == float("inf")
        assert summary["max_time_ratio_pair"] == ["b", "p"]
