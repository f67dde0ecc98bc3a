"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation.
The sweeps run once per benchmark (``pedantic`` with a single round): the
interesting output is the printed table, not the wall-clock variance, and a
full multi-policy sweep is far too expensive to repeat dozens of times.

Benchmarks default to the paper's full Table 2 footprints: the simulator
makes full-scale sweeps cheap enough that there is no reason to benchmark
a reduced model.  Environment knobs still control the
scale/parallelism trade-off:

* ``REPRO_BENCH_SCALE`` -- workload scale (default ``1.0``, the paper's
  full footprints; turn it down for very slow machines.  The
  ``slow``-marked full-scale sweep benchmark keeps its marker as the
  escape hatch for the default tier-1 run, which deselects it).
* ``REPRO_SWEEP_WORKERS`` -- sweep worker count (``1`` forces serial
  execution for reproducible CI timings; default ``os.cpu_count()``).
* ``REPRO_BENCH_PLATFORM`` -- platform variant the whole suite runs on
  (default ``default``; any name in
  :data:`repro.experiments.PLATFORM_VARIANTS`, e.g. ``cxl-pud``, grows
  the benchmarked roster without touching the benchmarks).

The platform configuration is *not* restated here: it comes from
:func:`repro.experiments.experiment_platform_config` via the
``ExperimentConfig`` default, the same single source the figure harnesses
and the golden regression tests use, so the two can never drift apart.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import ExperimentConfig, platform_variant

#: Workload scale used by all benchmarks (``REPRO_BENCH_SCALE`` overrides).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Platform variant the benchmarks run on (``REPRO_BENCH_PLATFORM``).
BENCH_PLATFORM = os.environ.get("REPRO_BENCH_PLATFORM", "default")

#: The paper's full Table 2 footprints, used by the ``slow`` benchmarks.
FULL_SCALE = 1.0


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return ExperimentConfig(workload_scale=BENCH_SCALE,
                            platform=platform_variant(BENCH_PLATFORM))


@pytest.fixture(scope="session")
def shared_cache() -> dict:
    """Session-wide cache so related benchmarks can reuse expensive sweeps."""
    return {}


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1,
                              iterations=1, warmup_rounds=0)
