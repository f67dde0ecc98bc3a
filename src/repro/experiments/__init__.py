"""Experiment harnesses: a declarative registry over one sweep engine.

Every figure/table of the paper's evaluation is a registered
:class:`~repro.experiments.registry.ExperimentDef` executed by the shared
:func:`~repro.experiments.registry.run_experiment` engine over a
(workloads x policies x platform variants) cross-product sweep.
``python -m repro list`` / ``python -m repro run <name>`` is the CLI and
``run_experiment(name, config).sections`` the library API; a result's
``platform_grid()`` returns the raw (workload, policy) grid, e.g. for
:func:`fig7_results_from_grid`.  ``run_compare`` (two-variant diffs) and
:func:`repro.serve.run_serve` (custom fleets/tenants) are the only other
entry points.
"""

from repro.experiments.platforms import (MULTICORE_ISP_CORES,
                                         PLATFORM_VARIANTS,
                                         available_platform_variants,
                                         experiment_platform_config,
                                         platform_variant,
                                         register_platform_variant,
                                         with_adaptive_ftl,
                                         with_contention_feedback,
                                         with_drive_age)
from repro.experiments.registry import (EXPERIMENT_REGISTRY,
                                        ExperimentContext, ExperimentDef,
                                        ExperimentResult,
                                        available_experiments,
                                        experiment_def, per_platform,
                                        register_experiment, run_experiment)
from repro.experiments.ablations import (ABLATION_VECTOR_WIDTHS,
                                         COST_ABLATIONS, cost_ablation_rows,
                                         coherence_ablation_rows,
                                         vector_width_ablation_rows)
from repro.experiments.backend_ablation import (ABLATION_PLATFORMS,
                                                ablation_rosters)
from repro.experiments.compare import (COMPARE_SCHEMA_VERSION, compare_grids,
                                       run_compare)
from repro.experiments.contention import (CONTENTION_PLATFORMS,
                                          CONTENTION_WORKLOADS)
from repro.experiments.lifetime import (LIFETIME_PLATFORMS,
                                        LIFETIME_POLICIES,
                                        LIFETIME_WORKLOADS)
# Modules imported only for their side effect register a definition;
# import order is registration (and ``repro list``) order.
import repro.experiments.fig4_case_study  # noqa: F401
import repro.experiments.fig5_motivation  # noqa: F401
from repro.experiments.fig7_speedup_energy import (Fig7Results,
                                                   fig7_results_from_grid)
import repro.experiments.fig8_tail_latency  # noqa: F401
import repro.experiments.fig9_offload_decisions  # noqa: F401
from repro.experiments.fig10_timeline import phase_summary
import repro.experiments.overheads  # noqa: F401
from repro.experiments.report import (_register_report, format_table,
                                      nested_to_rows, to_json)
from repro.experiments.runner import (DEFAULT_SWEEP_CACHE_DIR,
                                      DEFAULT_WORKLOAD_SCALE, FIG5_POLICIES,
                                      FIG7_POLICIES, SWEEP_CACHE_ENV,
                                      SWEEP_WORKERS_ENV, ExperimentConfig,
                                      ExperimentRunner, RunSpec, SweepCache,
                                      SweepStats, default_sweep_cache_dir,
                                      energy_table, execute_run_spec,
                                      resolve_sweep_workers, run_spec_key,
                                      speedup_table)
import repro.experiments.table3_workloads  # noqa: F401
from repro.experiments.traces import (TRACE_PLATFORMS, TRACE_POLICIES,
                                      TRACE_WORKLOADS)

# The fleet-serving experiment lives in its own package; a plain module
# import (no attribute access) registers its definition while staying
# safe under the repro.serve -> repro.experiments import cycle.
import repro.serve.experiment  # noqa: E402,F401

# The composite depends on the member definitions above being registered.
_register_report()

__all__ = [
    "MULTICORE_ISP_CORES", "PLATFORM_VARIANTS",
    "available_platform_variants", "experiment_platform_config",
    "platform_variant", "register_platform_variant",
    "with_contention_feedback",
    "EXPERIMENT_REGISTRY", "ExperimentContext", "ExperimentDef",
    "ExperimentResult", "available_experiments", "experiment_def",
    "per_platform", "register_experiment", "run_experiment",
    "ABLATION_PLATFORMS", "ablation_rosters",
    "ABLATION_VECTOR_WIDTHS", "COST_ABLATIONS", "cost_ablation_rows",
    "coherence_ablation_rows", "vector_width_ablation_rows",
    "COMPARE_SCHEMA_VERSION", "compare_grids", "run_compare",
    "CONTENTION_PLATFORMS", "CONTENTION_WORKLOADS",
    "LIFETIME_PLATFORMS", "LIFETIME_POLICIES", "LIFETIME_WORKLOADS",
    "with_adaptive_ftl", "with_drive_age",
    "Fig7Results", "fig7_results_from_grid", "phase_summary",
    "format_table", "nested_to_rows", "to_json", "DEFAULT_SWEEP_CACHE_DIR",
    "DEFAULT_WORKLOAD_SCALE", "FIG5_POLICIES",
    "FIG7_POLICIES", "SWEEP_CACHE_ENV", "SWEEP_WORKERS_ENV",
    "ExperimentConfig", "ExperimentRunner", "RunSpec", "SweepCache",
    "SweepStats", "default_sweep_cache_dir", "energy_table",
    "execute_run_spec",
    "resolve_sweep_workers", "run_spec_key", "speedup_table",
    "TRACE_PLATFORMS", "TRACE_POLICIES", "TRACE_WORKLOADS",
]
