"""``python -m repro`` -- the unified experiment CLI.

One entry point for the whole evaluation:

* ``python -m repro list`` -- registered experiments and platform variants;
* ``python -m repro run <experiment>`` -- run one registry entry, with
  ``--platform VARIANT`` (repeatable: sweeps the platform axis),
  ``--trace FILE`` (repeatable: registers MQSim-format block traces as
  workloads and adds them to the sweep), ``--scale S``, ``--serial`` /
  ``--workers N``, ``--no-cache`` / ``--cache-dir DIR``, ``--json OUT``
  and ``-v`` (sweep statistics);
* ``python -m repro compare <experiment> <base> <other>`` -- sweep one
  experiment's axes over two platform variants and diff the grids pair
  by pair (time/energy ratios plus maintenance counters).

Everything the CLI does goes through the public library API
(:func:`repro.experiments.run_experiment`), so scripted users get exactly
the same behaviour.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Dict, List, Optional


def _scale(text: str) -> float:
    """``--scale`` value: a finite, positive float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.runner import DEFAULT_WORKLOAD_SCALE
    # One constant drives both subcommands' --scale help (and the
    # ExperimentConfig default), so the documented default cannot drift
    # from the behaviour.
    scale_help = (f"workload scale (default: {DEFAULT_WORKLOAD_SCALE}, "
                  "the figure harnesses' scale; 1.0 = the paper's full "
                  "Table 2 footprints)")
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's evaluation: run registered "
                    "experiments over (workload x policy x platform) "
                    "sweeps.")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "list", help="list registered experiments and platform variants")

    run = commands.add_parser(
        "run", help="run one registered experiment")
    run.add_argument("experiment",
                     help="registry name (see `python -m repro list`)")
    run.add_argument("--platform", action="append", dest="platforms",
                     metavar="VARIANT",
                     help="platform variant to run on; repeat to sweep the "
                          "platform axis (default: the experiment's own "
                          "axis, usually just `default`)")
    run.add_argument("--scale", type=_scale, default=None, metavar="S",
                     help=scale_help)
    run.add_argument("--trace", action="append", dest="traces",
                     metavar="FILE",
                     help="register an MQSim-format block trace as a "
                          "workload and add it to the experiment's "
                          "workload axis; repeatable")
    workers = run.add_mutually_exclusive_group()
    workers.add_argument("--serial", action="store_true",
                         help="run the sweep in-process (no worker pool)")
    workers.add_argument("--workers", type=int, metavar="N",
                         help="process-pool worker count (default: "
                              "REPRO_SWEEP_WORKERS, then cpu count)")
    cache = run.add_mutually_exclusive_group()
    cache.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk sweep result cache")
    cache.add_argument("--cache-dir", metavar="DIR",
                       help="sweep cache directory (default: "
                            "REPRO_SWEEP_CACHE, then .sweep_cache/)")
    run.add_argument("--json", dest="json_out", metavar="OUT",
                     help="also write sections/headlines/stats as JSON")
    run.add_argument("--profile", action="store_true",
                     help="profile the run under cProfile and print a "
                          "per-phase time breakdown (collect / compile / "
                          "decide / transform / dispatch / move / "
                          "maintenance / execute; builtins count to "
                          "their callers' phase); forces an "
                          "in-process serial sweep and disables the "
                          "result cache so the simulation actually runs")
    run.add_argument("-v", "--verbose", action="store_true",
                     help="print sweep statistics "
                          "(pairs/executed/cache-hits/workers)")

    compare = commands.add_parser(
        "compare", help="diff two platform variants over one experiment's "
                        "(workload x policy) axes")
    compare.add_argument("experiment",
                         help="registry name of a policy-sweeping "
                              "experiment (see `python -m repro list`)")
    compare.add_argument("base", help="baseline platform variant")
    compare.add_argument("other", help="variant compared against the base")
    compare.add_argument("--scale", type=_scale, default=None, metavar="S",
                         help=scale_help)
    compare_workers = compare.add_mutually_exclusive_group()
    compare_workers.add_argument("--serial", action="store_true",
                                 help="run the sweep in-process")
    compare_workers.add_argument("--workers", type=int, metavar="N",
                                 help="process-pool worker count")
    compare_cache = compare.add_mutually_exclusive_group()
    compare_cache.add_argument("--no-cache", action="store_true",
                               help="disable the on-disk sweep cache")
    compare_cache.add_argument("--cache-dir", metavar="DIR",
                               help="sweep cache directory")
    compare.add_argument("--json", dest="json_out", metavar="OUT",
                         help="also write the comparison document as JSON")
    compare.add_argument("-v", "--verbose", action="store_true",
                         help="print sweep statistics")
    return parser


#: ``--profile`` phase map: the first rule whose fragment appears in a
#: profiled function's file path claims its exclusive (tottime) cost, so
#: no function is double-counted.  Order matters where a later rule's
#: fragment is a prefix of an earlier one's directory: the wave slicer in
#: ``core/compiler/`` is collection, and drive aging, GC and wear-leveling
#: under ``ssd/`` are maintenance, not execution.  The contention monitor
#: (``core/contention.py``) prices candidates while their features are
#: collected, so it is collection too.  ``dispatch`` is the runtime's
#: dispatch loop (``core/runtime.py``).
PROFILE_PHASES = (
    ("collect", ("core/offload/features", "core/compiler/waves",
                 "core/contention")),
    ("compile", ("core/compiler/", "workloads/")),
    ("decide", ("core/offload/policies", "core/offload/cost_model",
                "core/offload/offloader")),
    ("transform", ("core/offload/transform",)),
    ("dispatch", ("core/runtime",)),
    ("move", ("core/platform", "core/coherence", "ssd/flash_controller",
              "dram/dram", "dram/bank")),
    ("maintenance", ("ssd/lifetime/", "ssd/gc", "ssd/wear_leveling")),
    ("execute", ("ssd/queues", "ssd/events", "isp/", "ifp/", "host/",
                 "dram/pud", "dram/cxl", "ssd/")),
)

#: Directory of the ``repro`` package: a profiled function defined under
#: it is booked by its own file, anything else by its callers.
PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def profile_phase(path: str) -> str:
    """The ``--profile`` phase a source file's exclusive time counts to."""
    path = path.replace("\\", "/")
    for phase, fragments in PROFILE_PHASES:
        if any(fragment in path for fragment in fragments):
            return phase
    return "other"


#: Rounds of caller propagation before time still circulating inside
#: recursive library code is left as ``other``.
_PROPAGATION_ROUNDS = 64


def profile_phase_totals(stats: Dict) -> Dict[str, float]:
    """Exclusive seconds per ``--profile`` phase.

    ``stats`` is :attr:`pstats.Stats.stats`.  A function defined in the
    ``repro`` package books its own time to its file's phase.  A C builtin
    (``min``, ``dict.get``, a named tuple's ``__new__``) or a standard
    library function has no phase of its own: its time is split over its
    callers in proportion to the exclusive time each caller's calls spent
    in it (the pstats caller records), and a library caller passes its
    part on the same way until it reaches a ``repro`` function.  Time
    with no ``repro`` caller -- the interpreter's own start-up, or
    recursion that never leaves library code -- stays ``other``.
    """
    totals = {phase: 0.0 for phase, _ in PROFILE_PHASES}
    totals["other"] = 0.0
    pending: Dict[tuple, float] = {}
    for function, (_, _, tottime, _, _) in stats.items():
        if function[0].startswith(PACKAGE_DIR):
            totals[profile_phase(function[0])] += tottime
        elif tottime > 0.0:
            pending[function] = tottime
    for _ in range(_PROPAGATION_ROUNDS):
        if not pending:
            break
        passed_on: Dict[tuple, float] = {}
        for function, seconds in pending.items():
            weights = {}
            for caller, record in stats[function][4].items():
                # cProfile keeps (calls, primitive calls, tottime,
                # cumtime) per caller; a recursive self-call is skipped.
                if caller != function and record[2] > 0.0:
                    weights[caller] = record[2]
            weight_sum = sum(weights.values())
            if weight_sum <= 0.0:
                totals["other"] += seconds
                continue
            for caller, weight in weights.items():
                part = seconds * weight / weight_sum
                if caller[0].startswith(PACKAGE_DIR):
                    totals[profile_phase(caller[0])] += part
                else:
                    passed_on[caller] = passed_on.get(caller, 0.0) + part
        pending = passed_on
    totals["other"] += sum(pending.values())
    return totals


def _profile_breakdown(profile) -> List[str]:
    """Aggregate a cProfile run into per-phase exclusive-time lines."""
    import pstats
    stats = pstats.Stats(profile).stats
    totals = profile_phase_totals(stats)
    grand = sum(tottime for _, _, tottime, _, _ in stats.values())
    lines = ["[profile] phase breakdown (exclusive time; builtin and "
             "library calls booked to their callers' phases):"]
    for phase in [name for name, _ in PROFILE_PHASES] + ["other"]:
        seconds = totals[phase]
        share = 100.0 * seconds / grand if grand else 0.0
        lines.append(f"[profile]   {phase:<11} {seconds:8.3f}s  "
                     f"{share:5.1f}%")
    lines.append(f"[profile]   {'total':<11} {grand:8.3f}s")
    return lines


def _cmd_list() -> int:
    from repro.experiments import (EXPERIMENT_REGISTRY,
                                   available_experiments,
                                   available_platform_variants)
    names = available_experiments()
    width = max(len(name) for name in names)
    print("Experiments (python -m repro run <name>):")
    for name in names:
        definition = EXPERIMENT_REGISTRY[name]
        print(f"  {name.ljust(width)}  {definition.title} "
              f"[{definition.axes_summary()}]")
    print()
    print("Platform variants (--platform, repeatable):")
    print("  " + ", ".join(available_platform_variants()))
    from repro.workloads import available_workloads
    print()
    print("Workloads (experiment axes, TenantSpec mixes; extend with "
          "--trace or register_workload):")
    print("  " + ", ".join(available_workloads()))
    return 0


def _with_traces(definition, trace_paths: List[str]):
    """Register ``--trace`` files and widen the experiment's workload axis.

    Registration uses ``overwrite=True`` so re-running the same command is
    idempotent; the trace's content hash is folded into every cache key
    (``RunSpec.workload_params``), so overwriting a name with different
    content can never be served the old content's results.
    """
    import dataclasses

    from repro.experiments.registry import ExperimentDef  # noqa: F401
    from repro.workloads import ALL_WORKLOADS
    from repro.workloads.traces import register_trace_workload
    if definition.composite:
        raise ValueError(
            f"experiment {definition.name!r} is a composite; --trace needs "
            "a single policy-sweeping experiment (e.g. `run traces`)")
    if not definition.policies:
        raise ValueError(
            f"experiment {definition.name!r} runs no (workload x policy) "
            "sweep, so --trace has no axis to extend")
    base = (definition.workloads if definition.workloads is not None
            else tuple(workload.name for workload in ALL_WORKLOADS))
    added = tuple(register_trace_workload(path, overwrite=True)
                  for path in trace_paths)
    merged = base + tuple(name for name in added if name not in base)
    return dataclasses.replace(definition, workloads=merged)


def _error_text(error: BaseException) -> str:
    """The message plus any notes added on the way up (e.g. the failing
    sweep unit), on one ``error:`` line."""
    return "; ".join([str(error), *getattr(error, "__notes__", ())])


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.common import SimulationError
    from repro.experiments import (ExperimentConfig, default_sweep_cache_dir,
                                   experiment_def, platform_variant,
                                   run_experiment, to_json)
    try:
        definition = experiment_def(args.experiment)
        platforms = tuple(args.platforms) if args.platforms else None
        for name in platforms or ():
            platform_variant(name)  # fail fast with the known-variant list
        if getattr(args, "traces", None):
            definition = _with_traces(definition, args.traces)
    except (ValueError, OSError, SimulationError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    config = (ExperimentConfig(workload_scale=args.scale)
              if args.scale is not None else ExperimentConfig())
    if args.no_cache or args.profile:
        # Profiling a cache hit would time JSON deserialization, not the
        # simulator, so --profile always executes the sweep.
        cache_dir = None
    else:
        cache_dir = args.cache_dir or default_sweep_cache_dir()
    profile = None
    if args.profile:
        import cProfile
        profile = cProfile.Profile()
    try:
        if profile is not None:
            # Worker processes would escape the profiler; stay in-process.
            profile.enable()
            try:
                result = run_experiment(definition, config,
                                        platforms=platforms, parallel=False,
                                        cache_dir=None)
            finally:
                profile.disable()
        else:
            result = run_experiment(definition, config, platforms=platforms,
                                    parallel=not args.serial,
                                    workers=args.workers,
                                    cache_dir=cache_dir)
    except ValueError as error:
        # The library API's user-error channel (duplicate variants, bad
        # worker counts, ...); internal failures still traceback.
        print(f"error: {_error_text(error)}", file=sys.stderr)
        return 2
    for name, text in result.formatted().items():
        print(f"== {name} ==")
        print(text)
        print()
    # An experiment that produces an empty table is always a bug (every
    # builder renders at least one row per swept unit); fail the run so
    # CI catches it instead of green-lighting "(no rows)" output.
    empty = [name for name, rows in result.sections.items() if not rows]
    if empty:
        print(f"error: empty report section(s): {', '.join(empty)}",
              file=sys.stderr)
        return 1
    for line in result.headline:
        print(line)
    if args.verbose:
        for name, stats in result.stats:
            print(f"[sweep {name}] {stats.summary()}")
    if profile is not None:
        for line in _profile_breakdown(profile):
            print(line)
    if args.json_out:
        to_json(result.to_jsonable(), path=args.json_out)
        print(f"wrote {args.json_out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments import (ExperimentConfig,
                                   default_sweep_cache_dir, format_table,
                                   run_compare, to_json)
    config = (ExperimentConfig(workload_scale=args.scale)
              if args.scale is not None else ExperimentConfig())
    cache_dir = (None if args.no_cache
                 else args.cache_dir or default_sweep_cache_dir())
    try:
        document = run_compare(args.experiment, args.base, args.other,
                               config, parallel=not args.serial,
                               workers=args.workers, cache_dir=cache_dir)
    except ValueError as error:
        print(f"error: {_error_text(error)}", file=sys.stderr)
        return 2
    print(f"== {args.experiment}: {args.base} vs {args.other} ==")
    print(format_table(document["rows"], float_digits=3))
    summary = document["summary"]
    if summary.get("pairs"):
        print(f"geomean time ratio {summary['geomean_time_ratio']:.3f}x, "
              f"energy ratio {summary['geomean_energy_ratio']:.3f}x over "
              f"{summary['pairs']} pairs; worst "
              f"{summary['max_time_ratio']:.3f}x on "
              f"{'/'.join(summary['max_time_ratio_pair'])}")
    else:
        print("error: the variants' sweeps share no (workload, policy) "
              "pairs", file=sys.stderr)
        return 1
    if args.verbose:
        print(f"[sweep {args.experiment}] {document['sweep']}")
    if args.json_out:
        to_json(document, path=args.json_out)
        print(f"wrote {args.json_out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "compare":
        return _cmd_compare(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
