"""Benchmark: regenerate Fig. 9 (offloading decisions per resource)."""

import pytest
from conftest import run_once

from repro.experiments import format_table, run_experiment


def test_bench_fig9_offload_decisions(benchmark, bench_config):
    rows = run_once(benchmark, run_experiment, "fig9",
                    bench_config).sections["fig9"]
    print("\nFig. 9 -- fraction of instructions per computation resource")
    print(format_table(rows))
    for row in rows:
        assert row["isp"] + row["pud_ssd"] + row["ifp"] == \
            pytest.approx(1.0, abs=1e-6)
    # Paper observation: memory-bound workloads (AES, XOR Filter) use ISP
    # very sparingly under Conduit.
    for workload in ("AES", "XOR Filter"):
        conduit_row = next(r for r in rows
                           if r["workload"] == workload
                           and r["policy"] == "Conduit")
        assert conduit_row["isp"] < 0.5
