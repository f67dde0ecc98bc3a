#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-scale smoke of all three workloads.

Run from the repository root (about a minute on a 2-CPU host)::

    python3 perfbench/selftest.py

For every workload in ``BENCHMARK.json`` it makes one untraced and one
traced run at a tenth of the benchmark's sizes and asserts that

* ``BENCHMARK.json`` declares exactly the metrics and units ``run.py``
  emits, and every run emits all of them, plus the workload's own named
  metrics, each with a unit;
* the output checks pass on every run;
* the traced run reproduces the untraced ``sim_digest``, and its
  per-layer self times plus a nonnegative ``trace.unattributed_s`` add
  up to ``trace.wall_s``;
* tracing leaves every patched function as it found it.
"""

from __future__ import annotations

import json
import math
import os
import sys

import run
from tracer import snapshot

#: Workload-specific end-to-end metrics each untraced run must print.
NAMED = {
    "fig7-paper": ("sim_instr_per_s", "fidelity.conduit_vs_cpu_err",
                   "fidelity.conduit_vs_dm_err",
                   "fidelity.energy_reduction_err"),
    "aged-writes": ("sim_instr_per_s", "sim.aged_conduit_vs_cpu"),
    "serve-fleet": ("serve_req_per_s", "sim.serve_p99_ms"),
}

#: Per-layer metrics that are self times (they and the unattributed time
#: partition the traced wall-clock).
SELF_TIMES = ("self_s", "cache.load_s", "cache.store_s")


def check_emitted(record, declared) -> None:
    assert record["correct"] and record["failed"] == 0, record["messages"]
    assert set(record["metrics"]) == set(declared), (
        sorted(set(record["metrics"]) ^ set(declared)))
    for name, value in record["metrics"].items():
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            (name, value)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert end_to_end == {n: u for n, u, _ in run.END_TO_END}
    assert per_layer == {n: u for n, u, _ in run.PER_LAYER}

    before = snapshot()
    for workload in (entry["name"] for entry in bench["workloads"]):
        plain = run.measure(workload, seed=7, seconds=1, trace=False,
                            scale_factor=0.1, probes=1)
        check_emitted(plain, end_to_end)
        for name in NAMED[workload] + ("failure_rate", "run_tail_ms"):
            value, unit, _ = plain["named"][name]
            assert unit and math.isfinite(value), (workload, name)

        traced = run.measure(workload, seed=7, seconds=1, trace=True,
                             scale_factor=0.1)
        check_emitted(traced, per_layer)
        assert traced["restored"] and snapshot() == before, workload
        assert traced["sim_digest"] == plain["sim_digest"], workload
        metrics = traced["metrics"]
        wall = metrics["trace.wall_s"]
        attributed = sum(value for name, value in metrics.items()
                         if name.endswith(SELF_TIMES))
        unattributed = metrics["trace.unattributed_s"]
        assert math.isclose(attributed + unattributed, wall,
                            rel_tol=1e-9), workload
        assert unattributed >= -1e-6, (workload, unattributed)
        print(f"selftest {workload}: ok (digest {plain['sim_digest']}, "
              f"unattributed {unattributed / wall:.2%})")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
