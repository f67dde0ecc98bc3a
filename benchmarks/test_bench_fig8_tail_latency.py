"""Benchmark: regenerate Fig. 8 (tail latencies)."""

from conftest import run_once

from repro.experiments import format_table, run_experiment


def test_bench_fig8_tail_latency(benchmark, bench_config):
    rows = run_once(benchmark, run_experiment, "fig8",
                    bench_config).sections["fig8"]
    print("\nFig. 8 -- per-instruction tail latencies (lower is better)")
    print(format_table(rows))
    by_key = {(row["workload"], row["policy"]): row for row in rows}
    for (workload, policy), row in by_key.items():
        assert row["p9999_us"] >= row["p99_us"] > 0
    # Shape check: Conduit's tails do not exceed DM-Offloading's by much on
    # the multiplication-heavy LLaMA2 workload (the paper shows large wins).
    llama = [row for row in rows if row["workload"] == "LlaMA2 Inference"]
    conduit = next(r for r in llama if r["policy"] == "Conduit")
    ideal = next(r for r in llama if r["policy"] == "Ideal")
    assert ideal["p99_us"] <= conduit["p99_us"]
