"""Tests for the experiment harnesses (tiny scales, structure-level checks)."""

import pytest

from repro.common import MIB
from repro.core.coherence import CoherenceEntry
from repro.core.platform import PlatformConfig
from repro.experiments import (ExperimentConfig, ExperimentRunner,
                               format_table, nested_to_rows, phase_summary,
                               run_experiment, speedup_table, to_json)
from repro.experiments.fig7_speedup_energy import Fig7Results
from repro.experiments.fig8_tail_latency import TAIL_POLICIES
from repro.experiments.fig10_timeline import TIMELINE_POLICIES
from repro.ssd.config import small_ssd_config
from repro.workloads import AESWorkload, Jacobi1DWorkload


@pytest.fixture(scope="module")
def tiny_config() -> ExperimentConfig:
    platform = PlatformConfig(ssd=small_ssd_config(),
                              dram_compute_window_bytes=1 * MIB,
                              sram_window_bytes=256 * 1024,
                              host_cache_bytes=1 * MIB)
    return ExperimentConfig(workload_scale=0.03, platform=platform)


@pytest.fixture(scope="module")
def runner(tiny_config) -> ExperimentRunner:
    return ExperimentRunner(tiny_config)


class TestRunner:
    def test_program_cache_reuses_programs(self, runner):
        workload = AESWorkload(scale=0.03)
        first = runner.program_for(workload)
        second = runner.program_for(workload)
        assert first is second

    def test_run_host_and_ndp_policies(self, runner):
        workload = Jacobi1DWorkload(scale=0.03)
        cpu = runner.run(workload, "CPU")
        conduit = runner.run(workload, "Conduit")
        assert cpu.policy == "CPU"
        assert conduit.policy == "Conduit"
        assert cpu.total_time_ns > 0 and conduit.total_time_ns > 0

    def test_sweep_and_speedup_table(self, runner):
        workloads = [Jacobi1DWorkload(scale=0.03)]
        results = runner.sweep(("CPU", "Ideal", "Conduit"), workloads)
        table = speedup_table(results, ("Ideal", "Conduit"))
        assert "jacobi-1d" in table
        assert "GMEAN" in table
        assert table["jacobi-1d"]["Ideal"] > 0


class TestFigureHarnesses:
    def test_table3_rows(self, tiny_config):
        rows = run_experiment("table3", tiny_config).sections["table3"]
        assert len(rows) == 6
        assert all("vectorizable_%" in row for row in rows)

    def test_case_study_structure(self, tiny_config):
        rows = run_experiment("fig4", tiny_config).sections["fig4"]
        categories = {row["category"] for row in rows}
        models = {row["model"] for row in rows}
        assert categories == {"I/O-Intensive", "More Compute-Intensive",
                              "Mixed"}
        assert models == {"OSP", "ISP", "IFP", "IFP+ISP"}
        osp_rows = [row for row in rows if row["model"] == "OSP"]
        for row in osp_rows:
            assert row["normalized_time"] == pytest.approx(1.0)

    def test_tail_latency_rows(self, tiny_config):
        rows = run_experiment("fig8", tiny_config).sections["fig8"]
        assert len(rows) == 2 * len(TAIL_POLICIES)
        for row in rows:
            assert row["p9999_us"] >= row["p99_us"] > 0

    def test_offload_decision_fractions_sum_to_one(self, tiny_config):
        rows = run_experiment("fig9", tiny_config).sections["fig9"]
        for row in rows:
            total = row["isp"] + row["pud_ssd"] + row["ifp"]
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_timeline_and_phase_summary(self, tiny_config):
        grid = run_experiment("fig10", tiny_config).platform_grid()
        timelines = {policy: grid[("LlaMA2 Inference", policy)].timeline(
                         limit=200)
                     for policy in TIMELINE_POLICIES}
        assert set(timelines) == {"BW-Offloading", "DM-Offloading",
                                  "Conduit"}
        summary = phase_summary(timelines, phases=3)
        assert summary
        assert all(row["instructions"] > 0 for row in summary)

    def test_overheads_report(self, tiny_config):
        rows = run_experiment("overheads", tiny_config).sections[
            "overheads"]
        overheads = {row["metric"]: row["value"] for row in rows}
        assert overheads["translation_table_bytes"] <= 1536
        assert overheads["avg_runtime_overhead_us"] > 0
        assert (overheads["coherence_metadata_bytes_per_page"]
                == CoherenceEntry.METADATA_BYTES)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_empty_table(self):
        assert format_table([]) == "(no rows)"

    def test_nested_to_rows(self):
        rows = nested_to_rows({"w1": {"p": 1.0}}, index_name="workload")
        assert rows == [{"workload": "w1", "p": 1.0}]

    def test_to_json_writes_file(self, tmp_path):
        path = tmp_path / "out.json"
        text = to_json({"x": 1}, path=str(path))
        assert path.read_text() == text


def energy_row(total: float) -> dict:
    return {"total": total, "data_movement": total / 2,
            "compute": total / 2}


class TestFig7Helpers:
    def test_conduit_vs_raises_on_missing_or_non_positive_gmean(self):
        results = Fig7Results(
            speedups={"GMEAN": {"Conduit": 2.0, "ISP": 1.0, "GPU": 0.0}},
            energy={}, raw={})
        assert results.conduit_vs("ISP") == 2.0
        with pytest.raises(ValueError, match="'GPU'"):
            results.conduit_vs("GPU")
        with pytest.raises(ValueError, match="'Ideal'"):
            results.conduit_vs("Ideal")

    def test_energy_reduction_raises_on_bad_energy_or_no_match(self):
        results = Fig7Results(
            speedups={},
            energy={"AES": {"Conduit": energy_row(0.5),
                            "ISP": energy_row(1.0)},
                    "heat-3d": {"Conduit": energy_row(0.5),
                                "GPU": energy_row(0.0)}},
            raw={})
        assert results.conduit_energy_reduction_vs("ISP") == 0.5
        with pytest.raises(ValueError, match="'heat-3d'"):
            results.conduit_energy_reduction_vs("GPU")
        with pytest.raises(ValueError, match="'Ideal'"):
            results.conduit_energy_reduction_vs("Ideal")
