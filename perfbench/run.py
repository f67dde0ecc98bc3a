#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig7-paper --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched:
several set-up probes (fresh processes, timed from spawn to ready) and a
fixed number of timed passes, each followed by the output checks.
``--trace 1`` makes one untraced and one traced pass, checks that both
produce the same ``sim_digest`` and that tracing restored every patched
function, and reports the per-layer metrics.  Load is one client in a
closed loop: each run starts after the previous one ends, in this process.

Human-readable lines (every named metric with its unit) come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run's full record (git
rev, host, scale, seed, every metric) is also written to
``perfbench/out/``.  The exit code is nonzero if any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Set-up probes per untraced run; setup_s is their median.
SETUP_PROBES = 5

#: End-to-end metrics every workload reports with ``--trace 0``:
#: (name, unit, better).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("run_p50_ms", "ms", "lower"),
    ("run_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "ratio", "higher"),
)

#: Backend families the per-backend queue waits are split by.
BACKEND_KINDS = ("isp", "pud-ssd", "ifp", "host-cpu", "host-gpu")

#: Per-layer metrics every workload reports with ``--trace 1``:
#: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("compiler.self_s", "s", "lower"),
    ("compiler.calls", "count", "lower"),
    ("platform.build_self_s", "s", "lower"),
    ("lifetime.aging_self_s", "s", "lower"),
    ("lifetime.pulse_self_s", "s", "lower"),
    ("lifetime.pulses", "count", "lower"),
    ("sim.gc_relocated_pages", "pages", "lower"),
    ("sim.gc_stall_ms", "sim_ms", "lower"),
    ("sim.write_amp", "x", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("offloader.self_s", "s", "lower"),
    ("offloader.decisions", "count", "lower"),
    ("offloader.wave_members", "count", "lower"),
    ("offloader.wave_fallback_ratio", "ratio", "lower"),
    ("features.self_s", "s", "lower"),
    ("features.calls", "count", "lower"),
    ("features.members_per_batch", "members", "higher"),
    ("policies.self_s", "s", "lower"),
    ("policies.calls", "count", "lower"),
    ("transform.self_s", "s", "lower"),
    ("transform.calls", "count", "lower"),
    ("movement.self_s", "s", "lower"),
    ("movement.calls", "count", "lower"),
    ("movement.run_calls", "count", "lower"),
    ("movement.page_fallback_ratio", "ratio", "lower"),
    ("sim.internal_pages", "pages", "lower"),
    ("sim.host_pages", "pages", "lower"),
    ("sim.writeback_pages", "pages", "lower"),
    ("coherence.self_s", "s", "lower"),
    ("coherence.calls", "count", "lower"),
    ("coherence.sync_actions", "count", "lower"),
    ("queues.self_s", "s", "lower"),
    ("queues.calls", "count", "lower"),
) + tuple((f"sim.queue_wait_ms.{kind}", "sim_ms", "lower")
          for kind in BACKEND_KINDS) + (
    ("runner.self_s", "s", "lower"),
    ("cache.load_s", "s", "lower"),
    ("cache.store_s", "s", "lower"),
    ("cache.lookups", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.bytes", "B", "lower"),
    ("serve.self_s", "s", "lower"),
    ("serve.requests", "count", "higher"),
    ("serve.shed_ratio", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

#: Which end-to-end metric, on which workload, each layer should move.
LAYER_TARGETS = {
    "compiler": "wall_s on aged-writes (zipf lowering); little on fig7-paper",
    "platform.build": "wall_s, run_p50_ms on aged-writes; ~0 on fig7-paper",
    "lifetime.aging": "wall_s, run_p50_ms on aged-writes; ~0 on fig7-paper",
    "lifetime.pulse": "wall_s, sim.aged_conduit_vs_cpu on aged-writes; "
                      "zero on fig7-paper",
    "runtime": "wall_s, sim_instr_per_s on fig7-paper",
    "offloader": "wall_s on aged-writes and fig7-paper",
    "features": "wall_s on aged-writes and fig7-paper",
    "policies": "wall_s on aged-writes and fig7-paper",
    "transform": "wall_s on aged-writes and fig7-paper",
    "movement": "wall_s, run_tail_ms on fig7-paper (sim.* feed fidelity)",
    "coherence": "wall_s on fig7-paper; the write path on aged-writes",
    "queues": "wall_s and the fidelity metrics on fig7-paper",
    "runner": "wall_s on fig7-paper",
    "cache.load": "setup_s, wall_s on serve-fleet",
    "cache.store": "wall_s on fig7-paper",
    "serve": "serve_req_per_s, wall_s on serve-fleet only",
}


# -- Statistics --------------------------------------------------------------


def tail(samples: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it; the maximum when there are fewer than 11 samples."""
    ordered = sorted(samples)
    count = len(ordered)
    if count < 11:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- Provenance --------------------------------------------------------------


def git_rev() -> str:
    """HEAD of the repository this file belongs to, or ``unknown``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if (out.returncode != 0 or len(lines) != 2
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "unknown"
    return lines[1]


def host() -> Dict[str, object]:
    return {"usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version()}


# -- Set-up ------------------------------------------------------------------


def setup_probe(workload: str, seed: int, scale_factor: float) -> None:
    """Child side of a set-up probe: import, set up, say ready, clean up."""
    from scenarios import SCENARIOS
    scenario = SCENARIOS[workload](seed, scale_factor)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"probe-{workload}-", dir=OUT)
    try:
        scenario.setup(workdir)
        print("ready", flush=True)
        scenario.teardown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def time_setup(workload: str, seed: int, scale_factor: float) -> float:
    """Seconds from spawning a fresh process to its set-up being ready."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", workload, "--seed", str(seed),
               "--scale-factor", repr(scale_factor)]
    start = perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.stdout.read()
        child.wait(timeout=120)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed "
                           f"(exit {child.returncode})")
    return elapsed


# -- Passes and checks -------------------------------------------------------


def check_pass(scenario, result) -> Tuple[int, List[str]]:
    """(failed runs, messages) of one pass: raised runs plus broken
    output invariants."""
    from checks import check_run
    messages = list(result.errors)
    bad = 0
    if result.runs:
        programs = scenario.programs()
        for workload, policy, run in result.runs:
            problems = check_run(run, programs[workload])
            if problems:
                bad += 1
                messages.append(f"{workload}/{policy}: {problems[0]}")
    extra = scenario.check(result)
    messages.extend(extra)
    failed = min(len(result.run_s), len(result.errors) + bad + bool(extra))
    return failed, messages


def untraced(scenario, seconds: float, probes: int) -> Dict[str, object]:
    from checks import sim_digest
    setup_samples = [time_setup(scenario.name, scenario.seed,
                                scenario.scale_factor)
                     for _ in range(probes)]
    walls: List[float] = []
    run_s: List[List[float]] = []  # per pass, in run order
    digests: List[str] = []
    failed, messages, items, values = 0, [], 0, {}
    for _ in range(scenario.passes(seconds)):
        result = scenario.run_pass()
        walls.append(result.wall_s)
        run_s.append(result.run_s)
        pass_failed, pass_messages = check_pass(scenario, result)
        failed += pass_failed
        messages.extend(pass_messages)
        digests.append(sim_digest(result.runs, result.digest_extra))
        items = items or scenario.items(result)
        values = values or result.values
        del result
    if len(set(digests)) > 1:
        failed += 1
        messages.append(f"sim_digest differs between passes: {digests}")
    samples = [t for times in run_s for t in times]
    attempted = len(samples)
    tail_ms, tail_pct = tail(samples)
    # Every pass makes the same runs in the same order, so each run has
    # one sample per pass.  On a shared host, interference only ever slows
    # a run down, so each run's fastest pass is the steadiest estimate of
    # its own cost: wall_s sums those, run_p50_ms is their median.
    run_best = [min(times) for times in zip(*run_s)]
    wall_s = sum(run_best)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall_s,
        "work_per_s": items / wall_s,
        "run_p50_ms": 1e3 * statistics.median(run_best),
        "run_tail_ms": 1e3 * tail_ms,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - failed / attempted,
    }
    named = scenario.named_metrics(metrics, values)
    named["failure_rate"] = (failed / attempted, "ratio",
                             f"{failed} of {attempted} runs")
    named["run_tail_ms"] = (metrics["run_tail_ms"], "ms",
                            f"p{tail_pct:.1f} of {attempted} runs")
    return {
        "attempted": attempted, "failed": failed, "messages": messages,
        "metrics": metrics, "named": named, "sim_digest": digests[0],
        "passes": len(walls), "setup_samples_s": setup_samples,
        "pass_wall_s": walls, "run_s": run_s, "sim_values": values,
    }


def traced(scenario) -> Dict[str, object]:
    from checks import sim_digest
    from tracer import Tracer, snapshot
    plain = scenario.run_pass()
    failed, messages = check_pass(scenario, plain)
    plain_digest = sim_digest(plain.runs, plain.digest_extra)
    plain_wall = plain.wall_s
    del plain

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        result = scenario.run_pass()
    finally:
        tracer.uninstall()
    restored = snapshot() == before
    traced_failed, traced_messages = check_pass(scenario, result)
    failed += traced_failed
    messages.extend(traced_messages)
    digest = sim_digest(result.runs, result.digest_extra)
    if digest != plain_digest:
        failed += 1
        messages.append(f"traced sim_digest {digest} != untraced "
                        f"{plain_digest}")
    if not restored:
        failed += 1
        messages.append("tracing did not restore the patched functions")

    tracer.save(os.path.join(
        OUT, f"{scenario.name}-seed{scenario.seed}.spans.npz"))
    metrics = layer_metrics(tracer, result, plain_wall)
    return {
        "attempted": 2 * len(result.run_s), "failed": failed,
        "messages": messages, "metrics": metrics,
        "named": {}, "sim_digest": digest, "passes": 1,
        "untraced_wall_s": plain_wall, "restored": restored,
    }


def layer_metrics(tracer, result, untraced_wall: float) -> Dict[str, float]:
    """Every PER_LAYER metric from one traced pass."""
    summary = tracer.summary()
    self_s, calls, nested = summary["self_s"], summary["calls"], \
        summary["nested"]
    counters = tracer.counters
    layer_self: Dict[str, float] = defaultdict(float)
    layer_calls: Dict[str, int] = defaultdict(int)
    for name, layer in zip(tracer.point_names, tracer.point_layers):
        layer_self[layer] += self_s[name]
        layer_calls[layer] += calls[name]

    members = calls["SSDOffloader.offload_member"]
    wave_fallbacks = nested.get(("SSDOffloader.offload",
                                 "SSDOffloader.offload_member"), 0)
    run_calls = calls["SSDPlatform.ensure_runs_at"]
    page_fallbacks = nested.get(("SSDPlatform.ensure_pages_at",
                                 "SSDPlatform.ensure_runs_at"), 0)
    batches = calls["FeatureCollector.collect_batch"]
    lookups = calls["SweepCache.load"]

    queue_wait_ns = dict.fromkeys(BACKEND_KINDS, 0.0)
    relocated, stall_ns, write_amp = 0, 0.0, []
    for _, _, run in result.simulated:
        for record in run.records:
            queue_wait_ns[record.resource.kind.value] += (record.start_ns
                                                          - record.ready_ns)
        maintenance = run.maintenance
        relocated += maintenance.gc_relocated_pages
        stall_ns += maintenance.foreground_stall_ns
        write_amp.append(maintenance.write_amplification)

    attributed = sum(layer_self.values())
    metrics = {
        "compiler.self_s": layer_self["compiler"],
        "compiler.calls": layer_calls["compiler"],
        "platform.build_self_s": layer_self["platform.build"],
        "lifetime.aging_self_s": layer_self["lifetime.aging"],
        "lifetime.pulse_self_s": layer_self["lifetime.pulse"],
        "lifetime.pulses": layer_calls["lifetime.pulse"],
        "sim.gc_relocated_pages": relocated,
        "sim.gc_stall_ms": stall_ns / 1e6,
        "sim.write_amp": statistics.fmean(write_amp) if write_amp else 0.0,
        "runtime.self_s": layer_self["runtime"],
        "offloader.self_s": layer_self["offloader"],
        "offloader.decisions": (members + calls["SSDOffloader.offload"]
                                - wave_fallbacks),
        "offloader.wave_members": members,
        "offloader.wave_fallback_ratio": ratio(wave_fallbacks, members),
        "features.self_s": layer_self["features"],
        "features.calls": layer_calls["features"],
        "features.members_per_batch": ratio(
            counters["features.batch_members"], batches),
        "policies.self_s": layer_self["policies"],
        "policies.calls": layer_calls["policies"],
        "transform.self_s": layer_self["transform"],
        "transform.calls": layer_calls["transform"],
        "movement.self_s": layer_self["movement"],
        "movement.calls": layer_calls["movement"],
        "movement.run_calls": run_calls,
        "movement.page_fallback_ratio": ratio(page_fallbacks, run_calls),
        "sim.internal_pages": int(counters["sim.internal_pages"]),
        "sim.host_pages": int(counters["sim.host_pages"]),
        "sim.writeback_pages": int(counters["sim.writeback_pages"]),
        "coherence.self_s": layer_self["coherence"],
        "coherence.calls": layer_calls["coherence"],
        "coherence.sync_actions": int(counters["coherence.sync_actions"]),
        "queues.self_s": layer_self["queues"],
        "queues.calls": layer_calls["queues"],
        **{f"sim.queue_wait_ms.{kind}": wait / 1e6
           for kind, wait in queue_wait_ns.items()},
        "runner.self_s": layer_self["runner"],
        "cache.load_s": layer_self["cache.load"],
        "cache.store_s": layer_self["cache.store"],
        "cache.lookups": lookups,
        "cache.hit_ratio": ratio(counters["cache.hits"], lookups),
        "cache.bytes": result.cache_bytes,
        "serve.self_s": layer_self["serve"],
        "serve.requests": int(counters["serve.requests"]),
        "serve.shed_ratio": ratio(counters["serve.shed"],
                                  counters["serve.requests"]),
        "trace.wall_s": result.wall_s,
        "trace.overhead_ratio": result.wall_s / untraced_wall,
        "trace.unattributed_s": result.wall_s - attributed,
    }
    return metrics


# -- Reporting ---------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale_factor: float = 1.0,
            probes: int = SETUP_PROBES) -> Dict[str, object]:
    """One benchmark run; returns its full record."""
    from scenarios import SCENARIOS
    scenario = SCENARIOS[workload](seed, scale_factor)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        scenario.setup(workdir)
        try:
            record = (traced(scenario) if trace
                      else untraced(scenario, seconds, probes))
        finally:
            scenario.teardown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update({
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "scale": scenario.scale,
        "scale_factor": scale_factor, "git_rev": git_rev(), "host": host(),
        "correct": record["failed"] == 0,
    })
    return record


def print_report(record: Dict[str, object]) -> None:
    units = dict((name, unit) for name, unit, _ in END_TO_END + PER_LAYER)
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"scale={record['scale']} trace={record['trace']} "
          f"passes={record['passes']} rev={record['git_rev'][:12]} "
          f"host={record['host']}")
    named = dict(record["named"])
    rows = [(name, named.pop(name, (value, units[name], "")))
            for name, value in record["metrics"].items()]
    for name, (value, unit, note) in rows + list(named.items()):
        print(f"  {name:<34} {value:>16.6g} {unit:<8} {note}")
    if record["trace"]:
        for layer, target in LAYER_TARGETS.items():
            print(f"  layer {layer:<15} should move {target}")
    print(f"  sim_digest {record['sim_digest']}")
    for message in record["messages"][:10]:
        print(f"  FAILED {message.splitlines()[0]}")
    name = (f"{record['workload']}-seed{record['seed']}"
            f"-trace{record['trace']}.json")
    with open(os.path.join(OUT, name), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=repr)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in record["metrics"].items()}
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig7-paper", "aged-writes", "serve-fleet"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale-factor", type=float, default=1.0,
                        help="shrink every workload (the self-test uses 0.1)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.scale_factor)
        return 0
    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.scale_factor)
    print_report(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
