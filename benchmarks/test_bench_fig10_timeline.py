"""Benchmark: regenerate Fig. 10 (instruction-to-resource timeline)."""

from conftest import run_once

from repro.experiments import format_table, phase_summary, run_experiment
from repro.experiments.fig10_timeline import TIMELINE_POLICIES


def test_bench_fig10_timeline(benchmark, bench_config):
    grid = run_once(benchmark, run_experiment, "fig10",
                    bench_config).platform_grid()
    timelines = {policy: grid[("LlaMA2 Inference", policy)].timeline(
                     limit=12_000)
                 for policy in TIMELINE_POLICIES}
    rows = phase_summary(timelines, phases=6)
    print("\nFig. 10 -- LLaMA2 Inference instruction-to-resource phases")
    print(format_table(rows))
    assert set(timelines) == {"BW-Offloading", "DM-Offloading", "Conduit"}
    for policy, timeline in timelines.items():
        assert timeline, policy
        resources = {entry["resource"] for entry in timeline}
        assert resources <= {"isp", "pud-ssd", "ifp"}
    # Paper observation: BW-Offloading switches resources more often than
    # DM-Offloading, which pins phases to one resource.
    switches = {policy: sum(1 for a, b in zip(t, t[1:])
                            if a["resource"] != b["resource"])
                for policy, t in timelines.items()}
    assert switches["BW-Offloading"] >= switches["DM-Offloading"]
