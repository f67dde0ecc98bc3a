"""Table 3 -- characteristics of the evaluated workloads.

Regenerates the workload characterization table: vectorizable code
percentage, average reuse and low/medium/high latency operation mix for the
six workloads, measured from the output of Conduit's compile-time pass and
reported next to the paper's values.

Characterization is compile-only (no simulation), but each workload's
compile + measurement is independent, so the table shards over the same
process pool as the simulation sweeps; rows come back in workload order
regardless of completion order.  Registered as the ``table3`` experiment
(``python -m repro run table3``) -- the only definition with an empty
policy axis, proving the registry also covers non-sweep experiments.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from repro.experiments.registry import (ExperimentContext, ExperimentDef,
                                        register_experiment)
from repro.experiments.runner import resolve_sweep_workers
from repro.workloads import Workload, characterization_table


def _characterization_row(workload: Workload) -> Dict[str, object]:
    """One Table 3 row (a picklable top-level shard for the pool)."""
    return characterization_table([workload])[0]


def _sections(ctx: ExperimentContext):
    count = min(resolve_sweep_workers(ctx.workers), len(ctx.workloads)) \
        if ctx.parallel else 1
    if count > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=count) as pool:
            rows = list(pool.map(_characterization_row, ctx.workloads))
    else:
        rows = [_characterization_row(workload) for workload in ctx.workloads]
    return OrderedDict(table3=rows)


TABLE3_DEF = register_experiment(ExperimentDef(
    name="table3",
    title="Table 3 -- workload characteristics (measured vs. paper)",
    description="Compile-time characterization: vectorizable fraction, "
                "reuse, and latency-class operation mix.",
    policies=(),  # compile-only: no simulation sweep
    build=_sections,
), overwrite=True)
