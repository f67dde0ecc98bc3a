"""Declarative experiment registry and the shared ``run_experiment`` engine.

Every figure/table of the paper's evaluation is one conceptual object: a
grid of (workload, policy, platform) runs rendered into tables.  This
module makes that object first class, in the spirit of MLPerf's named
benchmark entries and gem5's config-driven experiment definitions:

* an :class:`ExperimentDef` declares an experiment's axes (policies,
  workloads, default platform variants), its table builders and its
  paper-reference headlines;
* :data:`EXPERIMENT_REGISTRY` names every definition -- the figure modules
  register theirs at import time, and user code registers more with
  :func:`register_experiment`;
* :func:`run_experiment` is the single engine behind all of them: resolve
  the platform variants, run one cached cross-product sweep through
  :class:`~repro.experiments.runner.ExperimentRunner`, hand the grid to
  the definition's builders, and return an :class:`ExperimentResult` with
  per-section rows, formatted tables, headline lines and sweep stats.

``python -m repro`` is a thin shell over this module.
"""

from __future__ import annotations

import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.core.metrics import ExecutionResult
from repro.core.platform import PlatformConfig
from repro.experiments.platforms import platform_variant
from repro.experiments.runner import (ExperimentConfig, ExperimentRunner,
                                      SweepStats)
from repro.workloads import ALL_WORKLOADS, Workload, workload_by_name

#: One table: a list of flat dict rows (what ``format_table`` renders).
Rows = List[Dict[str, object]]

#: Result grid keyed by (workload, policy, platform_name).
Grid = Dict[Tuple[str, str, str], ExecutionResult]


def _platform_slice(grid: Grid, name: str, swept: Sequence[str], where: str
                    ) -> Dict[Tuple[str, str], ExecutionResult]:
    """One variant's slice of a grid, keyed by (workload, policy)."""
    if name not in swept:
        raise ValueError(
            f"platform {name!r} is not part of this {where}; swept: "
            f"{', '.join(swept)}")
    return {(workload, policy): result
            for (workload, policy, platform), result in grid.items()
            if platform == name}


@dataclass
class ExperimentContext:
    """Everything a definition's builders may need, in one place."""

    definition: "ExperimentDef"
    config: ExperimentConfig
    platform_names: Tuple[str, ...]
    platforms: "OrderedDict[str, PlatformConfig]"
    workloads: List[Workload]
    grid: Grid
    stats: SweepStats
    parallel: bool
    workers: Optional[int]
    cache_dir: Optional[str]

    def platform_grid(self, name: str
                      ) -> Dict[Tuple[str, str], ExecutionResult]:
        """One variant's slice of the grid, keyed by (workload, policy)."""
        return _platform_slice(self.grid, name, self.platform_names, "run")


#: Builds the experiment's tables from the swept grid.
SectionBuilder = Callable[[ExperimentContext], "OrderedDict[str, Rows]"]

#: Produces human-readable headline lines (paper-reference comparisons)
#: from the context and the sections ``build`` just returned, so a headline
#: can quote the built tables instead of recomputing them.
HeadlineBuilder = Callable[[ExperimentContext, "OrderedDict[str, Rows]"],
                           List[str]]


@dataclass(frozen=True)
class ExperimentDef:
    """A declarative figure/table definition.

    ``build`` receives the full :class:`ExperimentContext` and returns
    ordered ``{section: rows}`` tables; use :func:`per_platform` to lift a
    single-platform builder over the platform axis.  ``policies`` may be
    empty for compile-only experiments (no sweep runs; the builder does
    its own work, e.g. Table 3's characterization).  ``composite`` names
    member experiments instead -- they run in order against one shared
    result cache and their sections are concatenated.
    """

    name: str
    title: str
    build: Optional[SectionBuilder] = None
    policies: Tuple[str, ...] = ()
    #: Workload registry names; ``None`` means all six Table 3 workloads.
    workloads: Optional[Tuple[str, ...]] = None
    #: Platform variants swept when the caller does not choose any.
    default_platforms: Tuple[str, ...] = ("default",)
    description: str = ""
    headline: Optional[HeadlineBuilder] = None
    #: Paper-reported reference numbers the headline compares against.
    paper_refs: Tuple[str, ...] = ()
    #: Member experiment names (makes this a composite definition).
    composite: Tuple[str, ...] = ()

    def axes_summary(self) -> str:
        """Short human-readable axes description for ``repro list``."""
        if self.composite:
            return f"composite of {len(self.composite)} experiments"
        workloads = (f"{len(self.workloads)} workloads" if self.workloads
                     else f"{len(ALL_WORKLOADS)} workloads")
        if not self.policies:
            return f"{workloads}, compile-only"
        platforms = ("" if self.default_platforms == ("default",)
                     else f" x {len(self.default_platforms)} platforms")
        return f"{workloads} x {len(self.policies)} policies{platforms}"


#: Every registered experiment, keyed by name (registration order kept).
EXPERIMENT_REGISTRY: "OrderedDict[str, ExperimentDef]" = OrderedDict()


def register_experiment(definition: ExperimentDef, *,
                        overwrite: bool = False) -> ExperimentDef:
    """Add a definition to :data:`EXPERIMENT_REGISTRY` (returns it)."""
    if definition.build is None and not definition.composite:
        raise ValueError(
            f"experiment {definition.name!r} needs a build callable or "
            "composite members")
    if not overwrite and definition.name in EXPERIMENT_REGISTRY:
        raise ValueError(
            f"experiment {definition.name!r} is already registered; pass "
            "overwrite=True to replace it")
    EXPERIMENT_REGISTRY[definition.name] = definition
    return definition


def _ensure_builtin_experiments() -> None:
    """Importing the package imports every figure module, which registers
    its definition; this makes that explicit for direct registry users."""
    import repro.experiments  # noqa: F401


def experiment_def(name: str) -> ExperimentDef:
    """Look up a registered experiment; unknown names fail with the list."""
    _ensure_builtin_experiments()
    try:
        return EXPERIMENT_REGISTRY[name]
    except KeyError:
        known = ", ".join(EXPERIMENT_REGISTRY)
        raise ValueError(
            f"unknown experiment {name!r}; available: {known}") from None


def available_experiments() -> Tuple[str, ...]:
    """Registered experiment names, in registration order."""
    _ensure_builtin_experiments()
    return tuple(EXPERIMENT_REGISTRY)


def per_platform(builder: Callable[
        [ExperimentContext, str, Dict[Tuple[str, str], ExecutionResult]],
        "OrderedDict[str, Rows]"]) -> SectionBuilder:
    """Lift a single-platform table builder over the platform axis.

    The wrapped builder is called once per swept variant with that
    variant's (workload, policy)-keyed grid slice.  With more than one
    variant, section names gain a ``<variant>/`` prefix so the per-variant
    tables stay distinguishable in one report.
    """
    def build(ctx: ExperimentContext) -> "OrderedDict[str, Rows]":
        sections: "OrderedDict[str, Rows]" = OrderedDict()
        multi = len(ctx.platform_names) > 1
        for name in ctx.platform_names:
            for key, rows in builder(ctx, name,
                                     ctx.platform_grid(name)).items():
                sections[f"{name}/{key}" if multi else key] = rows
        return sections
    return build


#: Version of the ``repro run --json`` document layout.  Bump whenever a
#: top-level key is added, removed or changes meaning, so downstream
#: consumers (dashboards, regression diffs) can detect layout drift
#: instead of silently misreading fields.  Version 1: the initial
#: versioned layout (experiment/platforms/sections/headline/sweeps).
RESULT_SCHEMA_VERSION = 1


@dataclass
class ExperimentResult:
    """What :func:`run_experiment` returns."""

    name: str
    sections: "OrderedDict[str, Rows]"
    headline: List[str] = field(default_factory=list)
    #: One (experiment name, stats) entry per sweep that actually ran.
    stats: List[Tuple[str, SweepStats]] = field(default_factory=list)
    grid: Grid = field(default_factory=dict)
    platform_names: Tuple[str, ...] = ("default",)

    def platform_grid(self, name: str = "default"
                      ) -> Dict[Tuple[str, str], ExecutionResult]:
        """One variant's (workload, policy)-keyed slice of the raw grid."""
        return _platform_slice(self.grid, name, self.platform_names,
                               "result")

    def formatted(self) -> "OrderedDict[str, str]":
        """``{section: aligned plain-text table}`` in section order."""
        from repro.experiments.report import format_table
        return OrderedDict((name, format_table(rows))
                           for name, rows in self.sections.items())

    def to_jsonable(self) -> Dict[str, object]:
        """A JSON-serializable summary (``repro run --json`` writes this)."""
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "experiment": self.name,
            "platforms": list(self.platform_names),
            "sections": {name: rows for name, rows in self.sections.items()},
            "headline": list(self.headline),
            "sweeps": [{"experiment": name, "pairs": stats.pairs,
                        "executed": stats.executed,
                        "cache_hits": stats.cache_hits,
                        "workers": stats.workers,
                        "platforms": stats.platforms,
                        "parallel": stats.parallel}
                       for name, stats in self.stats],
        }


def run_experiment(experiment: Union[str, ExperimentDef],
                   config: Optional[ExperimentConfig] = None, *,
                   platforms: Optional[Sequence[str]] = None,
                   parallel: bool = True, workers: Optional[int] = None,
                   cache_dir: Optional[str] = None) -> ExperimentResult:
    """Run one registered (or ad-hoc) experiment definition.

    ``platforms`` overrides the definition's default platform axis with
    registered variant names, resolved against ``config.platform`` as the
    base shape.  The sweep itself is one cached cross-product: all
    variants of all (workload, policy) pairs shard over the same pool and
    share the same on-disk cache as every other experiment.
    """
    definition = (experiment if isinstance(experiment, ExperimentDef)
                  else experiment_def(experiment))
    config = config or ExperimentConfig()
    if definition.composite:
        return _run_composite(definition, config, platforms=platforms,
                              parallel=parallel, workers=workers,
                              cache_dir=cache_dir)
    platform_names = (tuple(platforms) if platforms
                      else definition.default_platforms)
    if len(set(platform_names)) != len(platform_names):
        # Catch this before the OrderedDict below silently dedups (the
        # names key both the grid and the per-variant section prefixes).
        raise ValueError(
            f"duplicate platform variant in {platform_names}; each variant "
            "may appear once per run")
    resolved = OrderedDict(
        (name, platform_variant(name, base=config.platform))
        for name in platform_names)
    workloads = (config.workloads() if definition.workloads is None else
                 [workload_by_name(name, scale=config.workload_scale)
                  for name in definition.workloads])
    runner = ExperimentRunner(config)
    if definition.policies:
        grid: Grid = runner.sweep(
            definition.policies, workloads, platforms=list(resolved.items()),
            parallel=parallel, workers=workers, cache_dir=cache_dir)
        stats = runner.last_sweep_stats
        sweeps = [(definition.name, stats)]
    else:
        grid, stats, sweeps = {}, SweepStats(platforms=len(resolved)), []
    ctx = ExperimentContext(
        definition=definition, config=config, platform_names=platform_names,
        platforms=resolved, workloads=workloads, grid=grid, stats=stats,
        parallel=parallel, workers=workers, cache_dir=cache_dir)
    sections = definition.build(ctx)
    headline = (definition.headline(ctx, sections) if definition.headline
                else [])
    return ExperimentResult(name=definition.name, sections=sections,
                            headline=headline, stats=sweeps, grid=dict(grid),
                            platform_names=platform_names)


def _run_composite(definition: ExperimentDef, config: ExperimentConfig, *,
                   platforms: Optional[Sequence[str]],
                   parallel: bool, workers: Optional[int],
                   cache_dir: Optional[str]) -> ExperimentResult:
    """Run a composite's members in order against one shared cache."""
    if cache_dir is None:
        # A per-call throwaway cache: members share plenty of pairs (the
        # Fig. 5 baselines are a subset of Fig. 7's), so each common unit
        # is simulated exactly once per report even uncached.
        with tempfile.TemporaryDirectory(prefix="sweep_cache_") as shared:
            return _run_composite(definition, config, platforms=platforms,
                                  parallel=parallel, workers=workers,
                                  cache_dir=shared)
    sections: "OrderedDict[str, Rows]" = OrderedDict()
    headline: List[str] = []
    stats: List[Tuple[str, SweepStats]] = []
    grid: Grid = {}
    platform_names: Tuple[str, ...] = (tuple(platforms) if platforms
                                       else ("default",))
    for member in definition.composite:
        result = run_experiment(member, config, platforms=platforms,
                                parallel=parallel, workers=workers,
                                cache_dir=cache_dir)
        for key, rows in result.sections.items():
            if key in sections:
                raise ValueError(
                    f"composite {definition.name!r}: member {member!r} "
                    f"produced duplicate section {key!r}")
            sections[key] = rows
        headline.extend(result.headline)
        stats.extend(result.stats)
        grid.update(result.grid)
    return ExperimentResult(name=definition.name, sections=sections,
                            headline=headline, stats=stats, grid=grid,
                            platform_names=platform_names)
