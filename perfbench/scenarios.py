"""The benchmark's three workloads.

Each scenario splits into a *set-up* (everything before the timed region:
configuration, seeded input generation, cache warm-up) and a *pass* (the
timed region: one closed-loop execution of the workload by one client,
serially, in this process).  A run repeats the pass a fixed number of
times, so two commits always measure identical work.

* ``fig7-paper`` -- the Fig. 7 sweep: six Table 3 kernels x ten
  ``FIG7_POLICIES`` at scale 1.0 on the ``default`` platform, programs
  compiled inside the pass, results stored into an empty sweep cache.
  It has no random input; the seed is recorded and otherwise unused.
* ``aged-writes`` -- {CPU, ISP, PuD-SSD, Conduit} x {LLM Training, XOR
  Filter, a write-heavy seeded zipf stream} on ``default-aged`` at scale
  0.25 (drive aging, background GC, write paths, ~10k small instructions).
* ``serve-fleet`` -- ``run_serve`` with ``DEFAULT_TENANTS`` and
  ``FleetConfig(seed=<seed> + i)`` for i in 0..3; the scale-0.25
  calibration is served from a sweep cache the set-up warms.
"""

from __future__ import annotations

import os
import re
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.compiler.ir import VectorProgram
from repro.core.metrics import ExecutionResult, geometric_mean
from repro.experiments.fig7_speedup_energy import (FIG7_DEF,
                                                   fig7_results_from_grid)
from repro.experiments.platforms import platform_variant
from repro.experiments.runner import (FIG7_POLICIES, ExperimentConfig,
                                      ExperimentRunner)
from repro.serve.experiment import REFERENCE_LOAD, run_serve, simulate_modes
from repro.serve.fleet import FleetConfig
from repro.serve.tenants import DEFAULT_TENANTS
from repro.workloads import (Workload, ZipfParams, ZipfWorkload,
                             workload_by_name)

#: One executed (or cache-served) run: (workload, policy, result).
Run = Tuple[str, str, ExecutionResult]

#: A reported metric: (value, unit, note).
Named = Tuple[float, str, str]


@dataclass
class PassResult:
    """What one timed pass produced."""

    #: Host seconds of the whole timed region.
    wall_s: float
    #: Host seconds of each run inside the pass (the run_p50/tail sample).
    run_s: List[float]
    #: Every run whose result the pass produced, for the output checks.
    runs: List[Run]
    #: Runs that raised, as ``"workload/policy: traceback"`` strings.
    errors: List[str]
    #: Simulated headline values of the pass (see each scenario).
    values: Dict[str, float] = field(default_factory=dict)
    #: Extra simulated output folded into the pass's ``sim_digest``.
    digest_extra: object = None
    #: Runs that executed the simulator in this pass (not cache-served).
    simulated: List[Run] = field(default_factory=list)
    #: Bytes in the sweep-cache directory the pass wrote or read.
    cache_bytes: int = 0


class Scenario:
    """Base of the three workloads (see the module docstring)."""

    name = ""
    #: Workload scale at ``--scale-factor 1``.
    base_scale = 1.0
    #: Host seconds one pass takes on the reference 2-CPU host; a run of
    #: ``--seconds S`` makes ``max(min_passes, round(S / nominal_pass_s))``
    #: passes, so the measured work is fixed by the arguments alone.
    nominal_pass_s = 1.0
    min_passes = 1

    def __init__(self, seed: int, scale_factor: float = 1.0) -> None:
        self.seed = seed
        self.scale_factor = scale_factor
        self.scale = self.base_scale * scale_factor

    def passes(self, seconds: float) -> int:
        return max(self.min_passes, round(seconds / self.nominal_pass_s))

    def setup(self, workdir: str) -> None:
        """Build everything the pass needs (not timed as wall_s)."""
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def programs(self) -> Dict[str, VectorProgram]:
        """Compiled program of every workload, keyed by workload name."""
        return {w.name: self.runner.program_for(w) for w in self.workloads}

    def items(self, result: PassResult) -> int:
        """Simulated work items one pass completes (instructions)."""
        return sum(len(run[2].records) for run in result.runs)

    def teardown(self) -> None:
        """Remove what the set-up left on disk."""

    def check(self, result: PassResult) -> List[str]:
        """Output checks beyond the per-run invariants (messages)."""
        return []

    def named_metrics(self, metrics: Dict[str, float],
                      values: Dict[str, float]) -> Dict[str, Named]:
        """The workload's own end-to-end metrics: name -> (value, unit,
        note), printed next to the common ones."""
        return {"sim_instr_per_s": (metrics["work_per_s"], "instr/s",
                                    "simulated instructions per host s")}


def _timed_grid(runner: ExperimentRunner, workloads: Sequence[Workload],
                policies: Sequence[str], cache_dir: Optional[str]
                ) -> PassResult:
    """Run every (workload, policy) pair as its own timed sweep call."""
    runs: List[Run] = []
    run_s: List[float] = []
    errors: List[str] = []
    start = perf_counter()
    for workload in workloads:
        for policy in policies:
            began = perf_counter()
            try:
                grid = runner.sweep((policy,), (workload,),
                                    cache_dir=cache_dir)
            except Exception:  # a failed run is counted, not fatal
                errors.append(f"{workload.name}/{policy}: "
                              f"{traceback.format_exc()}")
            else:
                runs.extend((key[0], key[1], result)
                            for key, result in grid.items())
            run_s.append(perf_counter() - began)
    wall_s = perf_counter() - start
    return PassResult(wall_s=wall_s, run_s=run_s, runs=runs, errors=errors,
                      simulated=list(runs))


def _paper_ref(pattern: str) -> float:
    """One number out of the registered fig7 ``paper_refs`` strings."""
    for text in FIG7_DEF.paper_refs:
        match = re.search(pattern, text)
        if match:
            return float(match.group(1))
    raise ValueError(f"no {pattern!r} in fig7 paper_refs "
                     f"{FIG7_DEF.paper_refs!r}")


class Fig7Paper(Scenario):
    name = "fig7-paper"
    base_scale = 1.0
    nominal_pass_s = 6.0

    def setup(self, workdir: str) -> None:
        self.workdir = workdir
        self.config = ExperimentConfig(workload_scale=self.scale)
        self.workloads = self.config.workloads()
        self.refs = {
            "conduit_vs_cpu": _paper_ref(r"([\d.]+)x CPU"),
            "conduit_vs_dm": _paper_ref(r"([\d.]+)x DM-Offloading"),
            "energy_reduction": _paper_ref(r"-([\d.]+)%") / 100.0,
        }
        self.runner: Optional[ExperimentRunner] = None

    def run_pass(self) -> PassResult:
        # A fresh runner compiles every program inside the pass, and an
        # empty cache directory takes every store, as a cold CLI run does.
        self.runner = ExperimentRunner(self.config)
        cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=self.workdir)
        try:
            result = _timed_grid(self.runner, self.workloads, FIG7_POLICIES,
                                 cache_dir)
            result.cache_bytes = _tree_bytes(cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if not result.errors:
            fig7 = fig7_results_from_grid(
                {(w, p): r for w, p, r in result.runs})
            result.values = {
                "conduit_vs_cpu": fig7.speedups["GMEAN"]["Conduit"],
                "conduit_vs_dm": fig7.conduit_vs("DM-Offloading"),
                "energy_reduction":
                    fig7.conduit_energy_reduction_vs("DM-Offloading"),
            }
        return result

    def named_metrics(self, metrics: Dict[str, float],
                      values: Dict[str, float]) -> Dict[str, Named]:
        named = super().named_metrics(metrics, values)
        for key, ref in self.refs.items():
            if key not in values:
                continue
            sim = values[key]
            shown = (f"{100 * sim:.1f}% vs paper {100 * ref:.1f}%"
                     if key == "energy_reduction"
                     else f"{sim:.3f}x vs paper {ref}x")
            named[f"fidelity.{key}_err"] = (abs(sim - ref) / ref, "ratio",
                                            f"simulated {shown}")
        return named


#: The aged-writes policies: the CPU baseline, both single-resource NDP
#: baselines that write back through the SSD, and Conduit.
AGED_POLICIES = ("CPU", "ISP", "PuD-SSD", "Conduit")


class AgedWrites(Scenario):
    name = "aged-writes"
    base_scale = 0.25
    nominal_pass_s = 3.0
    #: Zipf requests at scale factor 1: ~10.7k 8-KiB instructions.
    zipf_requests = 10_000

    def setup(self, workdir: str) -> None:
        self.config = ExperimentConfig(
            workload_scale=self.scale,
            platform=platform_variant("default-aged"))
        params = ZipfParams(
            requests=max(100, int(self.zipf_requests * self.scale_factor)),
            read_fraction=0.3, request_sectors=64, seed=self.seed)
        self.workloads = [
            workload_by_name("LLM Training", scale=self.scale),
            workload_by_name("XOR Filter", scale=self.scale),
            ZipfWorkload(scale=self.scale, params=params, name="zipf-writes"),
        ]
        self.runner: Optional[ExperimentRunner] = None

    def run_pass(self) -> PassResult:
        self.runner = ExperimentRunner(self.config)
        result = _timed_grid(self.runner, self.workloads, AGED_POLICIES, None)
        if not result.errors:
            times = {(w, p): r.total_time_ns for w, p, r in result.runs}
            result.values = {"aged_conduit_vs_cpu": geometric_mean([
                times[(w.name, "CPU")] / times[(w.name, "Conduit")]
                for w in self.workloads])}
        return result

    def named_metrics(self, metrics: Dict[str, float],
                      values: Dict[str, float]) -> Dict[str, Named]:
        named = super().named_metrics(metrics, values)
        if "aged_conduit_vs_cpu" in values:
            named["sim.aged_conduit_vs_cpu"] = (
                values["aged_conduit_vs_cpu"], "x",
                "simulated GMEAN on the near-EOL drive; unvalidated, the "
                "paper has no reference for it")
        return named


class ServeFleet(Scenario):
    name = "serve-fleet"
    base_scale = 0.25
    nominal_pass_s = 1.5
    #: At least three passes, so run_tail_ms has ten runs beyond it.
    min_passes = 3
    #: Fleet requests per load level at scale factor 1.
    fleet_requests = 2000
    #: One pass serves the fleet seeds ``seed .. seed + fleet_seeds - 1``.
    #: Bursty arrivals make one seed's request count vary by ~8% between
    #: seeds; four seeds per pass halve that, so wall_s tracks the code
    #: rather than the draw.
    fleet_seeds = 4

    def setup(self, workdir: str) -> None:
        self.config = ExperimentConfig(workload_scale=self.scale)
        requests = max(50, int(self.fleet_requests * self.scale_factor))
        self.fleets = [FleetConfig(seed=self.seed + offset, requests=requests)
                       for offset in range(self.fleet_seeds)]
        self.cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=workdir)
        # Warm the calibration cache: the same (workload, {CPU, Conduit})
        # specs run_serve sweeps, stored under the same keys.
        self.workloads = self.config.workloads()
        self.runner = ExperimentRunner(self.config)
        self.runner.sweep(("CPU", "Conduit"), self.workloads,
                          cache_dir=self.cache_dir)
        self._items: Optional[int] = None

    def run_pass(self) -> PassResult:
        errors: List[str] = []
        runs: List[Run] = []
        run_s: List[float] = []
        values: Dict[str, float] = {}
        tables = []
        start = perf_counter()
        for fleet in self.fleets:
            began = perf_counter()
            try:
                result = run_serve(self.config, fleet=fleet, parallel=False,
                                   cache_dir=self.cache_dir)
            except Exception:  # a failed run is counted, not fatal
                errors.append(f"serve seed {fleet.seed}: "
                              f"{traceback.format_exc()}")
            else:
                runs.extend((w, p, r) for (w, p), r
                            in result.platform_grid("default").items())
                tables.append(dict(result.sections))
            run_s.append(perf_counter() - began)
        wall_s = perf_counter() - start
        if not errors:
            # The headline values are those of the argument seed.
            for row in tables[0]["serve"]:
                if row["load"] == REFERENCE_LOAD:
                    values[f"{row['fleet']}_p99_ms"] = row["p99_ms"]
                    values[f"{row['fleet']}_shed_pct"] = row["rejected_pct"]
        return PassResult(wall_s=wall_s, run_s=run_s, runs=runs,
                          errors=errors, values=values, digest_extra=tables,
                          cache_bytes=_tree_bytes(self.cache_dir))

    def items(self, result: PassResult) -> int:
        """Fleet requests one pass simulates.

        Counted once, outside the timed region, by replaying each fleet
        simulation over the calibration grid: every generated request is
        either admitted or shed.
        """
        if self._items is None and result.runs:
            grid = {(w, p): r for w, p, r in result.runs}
            self._items = sum(outcome.admitted + outcome.rejected
                              for fleet in self.fleets
                              for by_load in simulate_modes(
                                  grid, fleet, DEFAULT_TENANTS).values()
                              for outcome in by_load.values())
        return self._items or 0

    def teardown(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def check(self, result: PassResult) -> List[str]:
        problems = []
        for table in result.digest_extra or ():
            for row in table["serve"]:
                if not (0.0 <= row["p50_ms"] <= row["p99_ms"]
                        <= row["p999_ms"]
                        and 0.0 <= row["rejected_pct"] <= 100.0
                        and row["achieved_rps"] > 0.0):
                    problems.append(f"serve row out of range: {row}")
        return problems

    def named_metrics(self, metrics: Dict[str, float],
                      values: Dict[str, float]) -> Dict[str, Named]:
        named = {"serve_req_per_s": (metrics["work_per_s"], "req/s",
                                     "simulated fleet requests per host s")}
        if "offloaded_p99_ms" in values:
            named["sim.serve_p99_ms"] = (
                values["offloaded_p99_ms"], "sim_ms",
                f"seed {self.seed}, offloaded fleet at {REFERENCE_LOAD}x "
                f"host-only capacity (host-only "
                f"{values['host-only_p99_ms']:.2f} sim_ms; shed "
                f"{values['offloaded_shed_pct']:.1f}% vs "
                f"{values['host-only_shed_pct']:.1f}%)")
        return named


def _tree_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(directory) for name in names)


SCENARIOS = {scenario.name: scenario
             for scenario in (Fig7Paper, AgedWrites, ServeFleet)}
