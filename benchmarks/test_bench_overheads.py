"""Benchmark: Section 4.5 storage and runtime overheads."""

from conftest import run_once

from repro.experiments import run_experiment


def test_bench_overheads(benchmark, bench_config):
    rows = run_once(benchmark, run_experiment, "overheads",
                    bench_config).sections["overheads"]
    overheads = {row["metric"]: row["value"] for row in rows}
    print("\nSection 4.5 -- Conduit overheads (measured vs. paper)")
    for key, value in overheads.items():
        print(f"  {key}: {value:.2f}")
    assert overheads["translation_table_bytes"] <= \
        overheads["paper_translation_table_bytes"]
    assert overheads["avg_runtime_overhead_us"] < \
        overheads["paper_max_runtime_overhead_us"]
    assert overheads["max_runtime_overhead_us"] < 100.0
