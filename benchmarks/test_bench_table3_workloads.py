"""Benchmark: regenerate Table 3 (workload characteristics)."""

from conftest import run_once

from repro.experiments import format_table, run_experiment


def test_bench_table3_workload_characteristics(benchmark, bench_config):
    rows = run_once(benchmark, run_experiment, "table3",
                    bench_config).sections["table3"]
    print("\nTable 3 -- workload characteristics (measured vs. paper)")
    print(format_table(rows))
    assert len(rows) == 6
    for row in rows:
        assert 0.0 < row["vectorizable_%"] <= 100.0
        assert row["low_%"] + row["medium_%"] + row["high_%"] == \
            __import__("pytest").approx(100.0, abs=0.5)
