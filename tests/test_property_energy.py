"""Property: energy is conserved across the accounting decomposition.

The ROADMAP's outstanding property item: the total charge an
:class:`~repro.energy.model.EnergyAccount` reports must equal the sum
over its components -- per-resource compute pools plus per-transfer-kind
movement pools -- for random charge sequences *and* for full random sweep
points.  Equality is exact (``==``, not approx): every reported total is
a sum over the same pool dictionaries in the same iteration order, so any
drift means a pool was double-counted or dropped, never float noise.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.common import Resource
from repro.energy.model import EnergyAccount
from repro.experiments import (ExperimentConfig, ExperimentRunner,
                               platform_variant)
from repro.workloads import workload_by_name

#: The charge menu random sequences draw from: (method name, kwargs
#: strategy).  Sizes/pages are kept small-ish; the magnitudes do not
#: matter for conservation, only the bookkeeping paths do.
_PAGES = st.integers(min_value=1, max_value=64)
_BYTES = st.integers(min_value=1, max_value=1 << 20)

CHARGE_OPS = st.one_of(
    st.tuples(st.just("charge_flash_read"), _PAGES),
    st.tuples(st.just("charge_flash_program"), _PAGES),
    st.tuples(st.just("charge_channel_dma"), _PAGES),
    st.tuples(st.just("charge_dram_access"), _BYTES),
    st.tuples(st.just("charge_pcie"), _BYTES),
    st.tuples(st.just("charge_host_dram"), _BYTES),
)


def _assert_conserved(breakdown) -> None:
    """Totals equal the sums over their component pools, exactly."""
    assert breakdown.compute_nj == sum(breakdown.per_resource_nj.values())
    assert breakdown.data_movement_nj == sum(
        breakdown.per_transfer_kind_nj.values())
    assert breakdown.total_nj == (breakdown.compute_nj +
                                  breakdown.data_movement_nj)


class TestAccountConservation:
    @given(movements=st.lists(CHARGE_OPS, max_size=40),
           compute=st.lists(
               st.tuples(st.sampled_from(sorted(Resource,
                                                key=lambda r: r.value)),
                         st.floats(min_value=0.0, max_value=1e9,
                                   allow_nan=False)),
               max_size=20),
           static_ns=st.floats(min_value=0.0, max_value=1e9,
                               allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_random_charge_sequences_conserve(self, movements, compute,
                                              static_ns):
        account = EnergyAccount()
        for method, amount in movements:
            getattr(account, method)(amount)
        for resource, nj in compute:
            account.add_compute(resource, nj)
        account.charge_static(static_ns, watts=0.5)
        breakdown = account.breakdown()
        _assert_conserved(breakdown)
        # The live properties and the frozen breakdown agree exactly.
        assert breakdown.total_nj == account.total_nj
        assert breakdown.compute_nj == account.compute_nj
        assert breakdown.data_movement_nj == account.data_movement_nj

    @given(flash_read=st.integers(0, 32), flash_program=st.integers(0, 32),
           dma=st.integers(0, 32))
    @settings(max_examples=50, deadline=None)
    def test_bulk_charge_run_equals_individual_charges(
            self, flash_read, flash_program, dma):
        """``charge_run`` is exactly the sum of the per-kind calls."""
        bulk, individual = EnergyAccount(), EnergyAccount()
        total = bulk.charge_run(
            flash_read_pages=flash_read, flash_program_pages=flash_program,
            dma_pages=dma)
        if flash_read:
            individual.charge_flash_read(flash_read)
        if flash_program:
            individual.charge_flash_program(flash_program)
        if dma:
            individual.charge_channel_dma(dma)
        assert bulk.breakdown() == individual.breakdown()
        assert total == bulk.data_movement_nj


class TestSweepPointConservation:
    """Random sweep points: the executed result's energy decomposes."""

    @given(workload=st.sampled_from(["AES", "XOR Filter", "jacobi-1d"]),
           policy=st.sampled_from(["Conduit", "DM-Offloading", "CPU",
                                   "GPU"]),
           scale=st.sampled_from([0.02, 0.05]),
           variant=st.sampled_from(["default", "multicore-isp",
                                    "cxl-pud"]),
           feedback=st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_energy_conserved_for_random_sweep_points(
            self, workload, policy, scale, variant, feedback):
        platform = dataclasses.replace(platform_variant(variant),
                                       contention_feedback=feedback)
        runner = ExperimentRunner(ExperimentConfig(workload_scale=scale,
                                                   platform=platform))
        result = runner.run(workload_by_name(workload, scale=scale), policy)
        _assert_conserved(result.energy)
        assert result.total_energy_nj == result.energy.total_nj
        assert result.total_energy_nj > 0.0
        # Every pool is a sum of non-negative charges.
        assert all(nj >= 0.0
                   for nj in result.energy.per_resource_nj.values())
        assert all(nj >= 0.0
                   for nj in result.energy.per_transfer_kind_nj.values())
