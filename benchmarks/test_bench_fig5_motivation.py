"""Benchmark: regenerate Fig. 5 (effectiveness of prior offloading models)."""

from conftest import run_once

from repro.experiments import format_table, run_experiment


def test_bench_fig5_prior_offloading_speedups(benchmark, bench_config):
    rows = run_once(benchmark, run_experiment, "fig5",
                    bench_config).sections["fig5"]
    print("\nFig. 5 -- speedup over CPU (higher is better)")
    print(format_table(rows))
    gmean = next(row for row in rows if row["workload"] == "GMEAN")
    # Shape checks from the paper's observations: the Ideal policy is the
    # upper bound and beats every prior offloading model.
    assert gmean["Ideal"] >= gmean["DM-Offloading"]
    assert gmean["Ideal"] >= gmean["BW-Offloading"]
    assert gmean["Ideal"] >= gmean["ISP"]
    assert gmean["Ideal"] > 1.0
