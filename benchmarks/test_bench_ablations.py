"""Ablation benchmarks for the design choices called out in DESIGN.md.

* Cost-function features: drop the queueing-delay, data-movement or
  dependence-delay terms (and replace the max-of-delays combination with a
  sum) and measure the impact on Conduit's execution time.
* Coherence: lazy (paper) vs strict flush-on-every-write.
* Vector width: the page-aligned 4096-element width vs narrower widths.

The loops themselves live in :mod:`repro.experiments.ablations` (each is a
registered experiment, ``python -m repro run cost_ablation`` etc.); these
benchmarks time the shared row builders and keep the sanity assertions.
"""

from conftest import run_once

from repro.experiments import (cost_ablation_rows, coherence_ablation_rows,
                               format_table, vector_width_ablation_rows)


def test_bench_ablation_cost_features(benchmark, bench_config):
    rows = run_once(benchmark, cost_ablation_rows, bench_config)
    print("\nAblation -- Conduit cost-function features (LLaMA2 Inference)")
    print(format_table(rows))
    by_variant = {row["variant"]: row["time_ms"] for row in rows}
    # The full cost function should not be slower than dropping the
    # data-movement term (which blinds Conduit to operand locality).
    assert by_variant["full"] <= by_variant["no-data-movement"] * 2.0


def test_bench_ablation_coherence(benchmark, bench_config):
    rows = run_once(benchmark, coherence_ablation_rows, bench_config)
    print("\nAblation -- lazy vs strict coherence (heat-3d)")
    print(format_table(rows))
    lazy = next(row for row in rows if row["coherence"] == "lazy")
    strict = next(row for row in rows if row["coherence"] == "strict")
    # Strict coherence flushes on every write; lazy defers almost all of it.
    assert strict["flushes"] >= lazy["flushes"]
    # Each strict write-through is a flash write-back the run pays for.
    assert strict["time_ms"] > lazy["time_ms"]


def test_bench_ablation_vector_width(benchmark, bench_config):
    rows = run_once(benchmark, vector_width_ablation_rows, bench_config)
    print("\nAblation -- compile-time vector width (heat-3d)")
    print(format_table(rows))
    by_width = {row["vector_width"]: row for row in rows}
    # Narrower vectors emit more instructions and pay more per-instruction
    # offloading overhead, which is why Conduit matches the flash page size.
    assert by_width[256]["instructions"] > by_width[4096]["instructions"]
    assert by_width[4096]["time_ms"] <= by_width[256]["time_ms"] * 1.3
