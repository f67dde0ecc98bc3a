"""Benchmark: regenerate Fig. 4 (case study on offloading computations)."""

from conftest import run_once

from repro.experiments import format_table, run_experiment


def test_bench_fig4_case_study(benchmark, bench_config):
    rows = run_once(benchmark, run_experiment, "fig4",
                    bench_config).sections["fig4"]
    print("\nFig. 4 -- execution time normalized to OSP (lower is better)")
    print(format_table(rows))
    categories = {row["category"] for row in rows}
    assert len(categories) == 3
    # OSP rows are the normalization baseline.
    for row in rows:
        if row["model"] == "OSP":
            assert abs(row["normalized_time"] - 1.0) < 1e-6
        assert row["normalized_time"] > 0
