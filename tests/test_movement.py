"""Golden tests for the per-page data-movement engine.

:meth:`repro.core.platform.SSDPlatform.ensure_runs_at` walks each operand
run page by page: every page reserves its own buses and pays its own
energy, and a page whose insertion evicts another page from the
destination window interleaves that page's write-back on the shared buses.

``GOLDEN`` pins results recorded from the seed implementation (workload
scale 0.25, the experiment platform config); the engine must keep
reproducing them, which guards against silent drift of the timing model.
Direct checks pin the run primitives: a resident run only refreshes its
LRU position, a mixed-residence run moves only its non-resident pages, and
a run larger than the destination window evicts its oldest pages.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.common import DataLocation, Resource
from repro.core.offload.policies import make_policy
from repro.core.platform import SSDPlatform
from repro.core.runtime import ConduitRuntime, HostRuntime
from repro.experiments import ExperimentConfig, experiment_platform_config
from repro.workloads import default_workloads

#: Workload scale the golden values were recorded at (seed implementation).
GOLDEN_SCALE = 0.25

#: Values recorded from the seed implementation.  Keys:
#: "<workload>|<policy>".  The LLM-Training/Conduit scenario exercises the
#: capacity-pressure regime (window evictions and dirty write-backs); the
#: CPU scenario exercises the host/PCIe path.
GOLDEN = {
    "LLM Training|Conduit": {
        "total_time_ns": 12600733.53912111,
        "compute_nj": 439649091.3989966,
        "data_movement_nj": 35219636.0,
        "host_dm_ns": 0.0,
        "internal_dm_ns": 27032590.488746822,
        "flash_read_ns": 431652839.7575014,
        "n_records": 1038,
        "flash_to_dram_pages": 499,
        "writeback_pages": 307,
        "host_pages": 0,
        "dram_evictions": 371,
        "coherence_flushes": 704,
        "l2p_lookups": 806,
    },
    "AES|Conduit": {
        "total_time_ns": 1084623.672025724,
        "compute_nj": 36335979.5448489,
        "data_movement_nj": 733344.0,
        "n_records": 680,
        "flash_to_dram_pages": 24,
        "coherence_flushes": 8,
    },
    "LlaMA2 Inference|DM-Offloading": {
        "total_time_ns": 2257453.069667737,
        "n_records": 517,
        "flash_to_dram_pages": 16,
    },
    "heat-3d|CPU": {
        "total_time_ns": 1607471.3333333335,
        # PCIe time only: each page's flash read is in flash_read_ns.
        "host_dm_ns": 112768.0,
        "host_pages": 16,
        "n_records": 321,
    },
    "jacobi-1d|PuD-SSD": {
        "total_time_ns": 2242715.423365487,
        "n_records": 289,
        "flash_to_dram_pages": 32,
    },
}

REL_TOL = 1e-9


@pytest.fixture(scope="module")
def programs():
    # The platform comes from the shared experiment_platform_config()
    # default, the same single source the figure harnesses and benchmarks
    # use; the golden values below are pinned against that configuration.
    config = ExperimentConfig(workload_scale=GOLDEN_SCALE)
    built = {}
    for workload in default_workloads(scale=GOLDEN_SCALE):
        built[workload.name] = workload.vector_program()[0]
    return config, built


def run_scenario(config: ExperimentConfig, program, policy_name: str):
    platform = SSDPlatform(config.platform)
    if policy_name == "CPU":
        result = HostRuntime(platform).execute(program, Resource.HOST_CPU)
    else:
        result = ConduitRuntime(platform).execute(
            program, make_policy(policy_name))
    movement = platform.movement
    return {
        "total_time_ns": result.total_time_ns,
        "compute_nj": result.energy.compute_nj,
        "data_movement_nj": result.energy.data_movement_nj,
        "host_dm_ns": result.breakdown.host_data_movement_ns,
        "internal_dm_ns": result.breakdown.internal_data_movement_ns,
        "flash_read_ns": result.breakdown.flash_read_ns,
        "n_records": len(result.records),
        "flash_to_dram_pages": movement.flash_to_dram_pages,
        "writeback_pages": movement.writeback_pages,
        "host_pages": movement.host_pages,
        "internal_latency_ns": movement.internal_latency_ns,
        "host_latency_ns": movement.host_latency_ns,
        "dram_evictions": platform._dram_window.evictions,
        "host_evictions": platform._host_window.evictions,
        "coherence_flushes": platform.coherence.flushes,
        "l2p_lookups": platform.ssd.ftl.stats.lookups,
        "l2p_hits": platform.ssd.ftl.stats.cache_hits,
    }


def assert_close(label: str, field: str, got, expected) -> None:
    assert math.isclose(got, expected, rel_tol=REL_TOL, abs_tol=1e-6), (
        f"{label}: {field} diverged: got {got!r}, expected {expected!r}")


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
class TestSeedGolden:
    def test_matches_seed(self, programs, scenario):
        """The movement engine still reproduces the seed's numbers."""
        config, built = programs
        workload, policy = scenario.split("|")
        observed = run_scenario(config, built[workload], policy)
        for field, expected in GOLDEN[scenario].items():
            assert_close(scenario, field, observed[field], expected)


class TestRunPrimitives:
    """Direct unit checks of the run-shaped movement entry points."""

    def make_platform(self, **overrides) -> SSDPlatform:
        return SSDPlatform(replace(experiment_platform_config(),
                                   **overrides))

    def test_resident_run_only_refreshes_lru(self):
        platform = self.make_platform()
        platform.setup_dataset(range(16))
        first = platform.ensure_runs_at(0.0, [(0, 16)],
                                        DataLocation.SSD_DRAM)
        again = platform.ensure_runs_at(first, [(0, 16)],
                                        DataLocation.SSD_DRAM)
        assert again == first
        assert platform.movement.flash_to_dram_pages == 16

    def test_mixed_residence_run_moves_only_non_resident_pages(self):
        platform = self.make_platform()
        platform.setup_dataset(range(32))
        platform.ensure_runs_at(0.0, [(8, 8)], DataLocation.SSD_DRAM)
        moved_before = platform.movement.flash_to_dram_pages
        platform.ensure_runs_at(1e6, [(0, 32)], DataLocation.SSD_DRAM)
        # Only the 24 pages still on flash move; the resident middle
        # pages refresh their LRU position.
        assert platform.movement.flash_to_dram_pages == moved_before + 24
        assert all(platform.residence.get(lpa) is DataLocation.SSD_DRAM
                   for lpa in range(32))

    def test_eviction_pressure_evicts_the_oldest_pages(self):
        """A run three windows long keeps only its last window resident."""
        platform = self.make_platform(dram_compute_window_bytes=8 * 4096)
        window_pages = platform._dram_window.capacity_pages
        total = window_pages * 3
        platform.setup_dataset(range(total))
        end = platform.ensure_runs_at(0.0, [(0, total)],
                                      DataLocation.SSD_DRAM)
        assert end > 0.0
        assert platform.movement.flash_to_dram_pages == total
        assert platform._dram_window.evictions == total - window_pages
        assert platform.eviction_epoch == total - window_pages
        resident = [lpa for lpa in range(total)
                    if platform.residence.get(lpa) is DataLocation.SSD_DRAM]
        assert resident == list(range(total - window_pages, total))
