"""Tests for the integrated NDP platform (locations, movement, energy)."""

import dataclasses

import pytest

from repro.common import (DataLocation, KIB, MIB, OpType, Resource,
                          SimulationError)
from repro.core.coherence import CoherencePolicy
from repro.core.compiler.ir import ArrayRef, ArraySpec, VectorInstruction
from repro.core.layout import ArrayLayout
from repro.core.offload.features import FeatureCollector
from repro.core.platform import PlatformConfig, SSDPlatform
from repro.dram.cxl import CXLPuDConfig
from repro.dram.dram import DRAMDevice
from repro.energy.model import EnergyAccount
from repro.experiments.platforms import (available_platform_variants,
                                         experiment_platform_config,
                                         platform_variant)
from repro.ssd.config import small_ssd_config
from repro.workloads import workload_by_name
from tests.test_runtime import run_on


class TestEnergyAccount:
    def test_compute_and_movement_pools_are_separate(self):
        account = EnergyAccount()
        account.add_compute(Resource.PUD, 100.0)
        account.charge_pcie(1024)
        breakdown = account.breakdown()
        assert breakdown.compute_nj == pytest.approx(100.0)
        assert breakdown.data_movement_nj > 0
        assert 0 < breakdown.data_movement_fraction < 1

    def test_flash_charges(self):
        account = EnergyAccount()
        assert account.charge_flash_read(2) == pytest.approx(2 * 20_500.0)
        assert account.charge_channel_dma(1) == pytest.approx(7_656.0)
        assert account.charge_flash_program(1) > 0

    def test_static_power_counts_as_compute(self):
        account = EnergyAccount()
        account.charge_static(1_000_000.0, watts=8.0)
        assert account.compute_nj == pytest.approx(8_000_000.0)


def where(platform: SSDPlatform, lpa: int) -> DataLocation:
    """A page's current location (flash unless the residence says else)."""
    return platform.residence.get(lpa, DataLocation.FLASH)


class TestPlatformLocations:
    def test_dataset_starts_in_flash(self, platform):
        platform.setup_dataset(range(64))
        assert where(platform, 3) is DataLocation.FLASH
        assert {where(platform, lpa) for lpa in range(64)} == {
            DataLocation.FLASH}

    def test_ensure_runs_at_moves_and_tracks(self, platform):
        platform.setup_dataset(range(16))
        end = platform.ensure_runs_at(0.0, [(0, 2)], DataLocation.SSD_DRAM)
        assert end > 0
        assert where(platform, 0) is DataLocation.SSD_DRAM
        assert platform.movement.flash_to_dram_pages == 2

    def test_repeated_ensure_is_free(self, platform):
        platform.setup_dataset(range(16))
        first = platform.ensure_runs_at(0.0, [(0, 1)], DataLocation.SSD_DRAM)
        second = platform.ensure_runs_at(first, [(0, 1)],
                                         DataLocation.SSD_DRAM)
        assert second == first

    def test_window_capacity_evicts_lru(self, small_ssd):
        config = PlatformConfig(ssd=small_ssd,
                                dram_compute_window_bytes=4 * 16 * KIB,
                                host_cache_bytes=1 * MIB)
        platform = SSDPlatform(config)
        platform.setup_dataset(range(32))
        platform.ensure_runs_at(0.0, [(0, 8)], DataLocation.SSD_DRAM)
        # Window holds 4 pages, so the first pages have been evicted.
        assert where(platform, 0) is DataLocation.FLASH
        assert where(platform, 7) is DataLocation.SSD_DRAM

    @pytest.mark.parametrize("field", ["dram_compute_window_bytes",
                                       "host_cache_bytes"])
    @pytest.mark.parametrize("pages_short", ["zero", "negative",
                                             "one-byte-short"])
    def test_window_below_one_page_rejected(self, small_ssd, field,
                                            pages_short):
        page = small_ssd.nand.page_size_bytes
        size = {"zero": 0, "negative": -1,
                "one-byte-short": page - 1}[pages_short]
        config = PlatformConfig(ssd=small_ssd, **{field: size})
        with pytest.raises(SimulationError, match=field):
            SSDPlatform(config)

    def test_one_page_window_accepted(self, small_ssd):
        page = small_ssd.nand.page_size_bytes
        platform = SSDPlatform(PlatformConfig(
            ssd=small_ssd, dram_compute_window_bytes=page,
            host_cache_bytes=page))
        assert platform._host_window.capacity_pages == 1

    def test_mark_produced_sets_residence(self, platform):
        platform.setup_dataset(range(8))
        platform.mark_produced_run(0.0, (1, 2), DataLocation.SSD_DRAM)
        assert where(platform, 1) is DataLocation.SSD_DRAM
        assert platform.coherence._dirty.get(2) == (DataLocation.SSD_DRAM, 1)

    @pytest.mark.parametrize("destination", [DataLocation.SSD_DRAM,
                                             DataLocation.HOST])
    def test_flash_read_is_booked_once(self, platform, destination):
        # Fig. 4 breakdown: a page's flash read, and the rest of its trip
        # after the read, each count in exactly one bucket.
        platform.setup_dataset(range(4))
        end = platform.ensure_runs_at(0.0, [(0, 1)], destination)
        stats = platform.movement
        assert stats.flash_read_latency_ns > 0.0
        assert (stats.flash_read_latency_ns + stats.host_latency_ns +
                stats.internal_latency_ns) == pytest.approx(end)

    def test_host_transfers_tracked(self, platform):
        platform.setup_dataset(range(4))
        platform.ensure_runs_at(0.0, [(0, 1)], DataLocation.HOST)
        assert platform.movement.host_pages == 1
        assert platform.ssd.nvme.bytes_to_host > 0


class TestMoveEstimates:
    def test_same_location_is_free(self, platform):
        for location in DataLocation:
            assert platform.move_table[(location, location)] == 0.0

    def test_flash_to_dram_cheaper_than_dram_to_flash(self, platform):
        to_dram = platform.move_table[(DataLocation.FLASH,
                                       DataLocation.SSD_DRAM)]
        to_flash = platform.move_table[(DataLocation.SSD_DRAM,
                                        DataLocation.FLASH)]
        assert to_flash > to_dram  # programming is far slower than reading

    def test_estimates_scale_with_page_count(self, platform):
        # The feature collector prices an operand run at the per-page
        # table entry times its page count.
        layout = ArrayLayout(platform.page_size)
        layout.place(ArraySpec("a", 1 << 20, 32))
        platform.setup_dataset(layout.all_lpas())
        collector = FeatureCollector(platform, layout)
        per_page = platform.page_size * 8 // 32

        def movement(pages: int) -> float:
            instruction = VectorInstruction(
                uid=pages, op=OpType.ADD, dest=None,
                sources=(ArrayRef("a", 0, pages * per_page),))
            features = collector.collect(instruction, 0.0, 0.0)
            return features.feature(Resource.PUD).data_movement_latency_ns

        one = movement(1)
        assert one == platform.move_table[(DataLocation.FLASH,
                                           DataLocation.SSD_DRAM)]
        assert movement(4) == pytest.approx(4 * one)


@pytest.mark.parametrize("variant", available_platform_variants())
def test_every_location_is_reachable(variant, platform_config):
    # A location no backend computes at is one no page ever moves to: the
    # data path models exactly flash plus the backends' home locations.
    platform = SSDPlatform(platform_variant(variant, platform_config))
    homes = {backend.home_location for backend in platform.backends}
    assert {DataLocation.FLASH} | homes == set(DataLocation)
    assert set(platform.move_table) == {
        (source, destination) for source in DataLocation
        for destination in DataLocation}


@pytest.fixture(scope="module")
def owner_programs():
    # Scale 0.25: below it no window fills, so no page is ever evicted.
    return {name: workload_by_name(name, scale=0.25).vector_program()[0]
            for name in ("LLM Training", "AES", "XOR Filter")}


@pytest.mark.parametrize("coherence", list(CoherencePolicy))
@pytest.mark.parametrize("variant", ["default", "cxl-pud"])
@pytest.mark.parametrize("policy", ["Conduit", "PuD-SSD", "Flash-Cosmos",
                                    "CPU"])
@pytest.mark.parametrize("workload", ["LLM Training", "AES", "XOR Filter"])
def test_dirty_page_owner_is_its_residence(owner_programs, workload, policy,
                                           variant, coherence):
    # The directory's owner of a dirty page and the platform's residence
    # are two records of one fact: where the latest copy lives.
    platform = SSDPlatform(dataclasses.replace(
        platform_variant(variant, experiment_platform_config()),
        coherence_policy=coherence))
    run_on(platform, owner_programs[workload], policy)
    dirty = platform.coherence._dirty
    # Strict coherence commits every write, so it ends with no dirty page.
    assert bool(dirty) is (coherence is CoherencePolicy.LAZY)
    for lpa, (owner, _) in dirty.items():
        assert where(platform, lpa) is owner, lpa


class TestComputeDispatch:
    def test_compute_latency_ordering_for_bitwise(self, platform):
        # For bulk bitwise work, PuD-SSD is fastest, ISP slowest per op.
        size = 16 * KIB
        backends = platform.backends
        pud = backends[Resource.PUD].operation_latency(OpType.AND, size, 8)
        isp = backends[Resource.ISP].operation_latency(OpType.AND, size, 8)
        assert pud < isp

    def test_ifp_multiplication_is_expensive(self, platform):
        size = 16 * KIB
        backends = platform.backends
        ifp_mul = backends[Resource.IFP].operation_latency(OpType.MUL, size, 8)
        pud_mul = backends[Resource.PUD].operation_latency(OpType.MUL, size, 8)
        assert ifp_mul > pud_mul

    def test_unsupported_ops_reported(self, platform):
        backends = platform.backends
        assert not backends[Resource.IFP].supports(OpType.SELECT)
        assert not backends[Resource.PUD].supports(OpType.GATHER)
        assert backends[Resource.ISP].supports(OpType.GATHER)

    def test_record_compute_accumulates_energy(self, platform):
        before = platform.energy.compute_nj
        pud = platform.backends[Resource.PUD]
        pud.execute(0.0, OpType.ADD, 16 * KIB, 8)
        platform.energy.add_compute(
            Resource.PUD, pud.operation_energy(OpType.ADD, 16 * KIB, 8))
        assert platform.energy.compute_nj - before == pytest.approx(
            pud.operation_energy(OpType.ADD, 16 * KIB, 8))

    def test_pud_operation_occupies_the_dram_banks_it_touches(self, platform):
        # 16 KiB spans the first two rows, i.e. banks 0 and 1.
        pud = platform.backends[Resource.PUD]
        latency = pud.operation_latency(OpType.MUL, 16 * KIB, 8)
        pud.execute(0.0, OpType.MUL, 16 * KIB, 8)
        dram = platform.dram
        mid_op = latency / 2
        last_bank = (dram.config.banks - 1) * dram.config.row_size_bytes

        def idle_end(address: int) -> float:
            return DRAMDevice(dram.config).read(mid_op, address, 64)

        # An access to an untouched bank is served as on an idle DRAM; one
        # to a touched bank starts only when the operation finishes.
        assert dram.read(mid_op, last_bank, 64) == idle_end(last_bank)
        assert dram.read(mid_op, 0, 64) == pytest.approx(
            idle_end(0) + latency - mid_op)

    def test_cxl_burst_leaves_a_link_backlog(self, platform_config):
        platform = SSDPlatform(dataclasses.replace(platform_config,
                                                   cxl_pud=CXLPuDConfig()))
        cxl = next(backend for backend in platform.backends
                   if backend.resource.value == "cxl-pud")
        assert cxl.link_backlog_ns(0.0) == 0.0
        for _ in range(8):
            cxl.execute(0.0, OpType.AND, 16 * KIB, 8)
        assert cxl.link_backlog_ns(0.0) > 0.0
        assert cxl.link_backlog_ns(1e9) == 0.0
        # The burst serializes on the expander's own banks, not the SSD's.
        assert (max(bank.busy_until for bank in cxl.dram.banks) >
                cxl.operation_latency(OpType.AND, 16 * KIB, 8))
        assert all(bank.busy_until == 0.0 for bank in platform.dram.banks)

    def test_bandwidth_utilization_zero_before_activity(self, platform):
        for resource in (Resource.ISP, Resource.PUD, Resource.IFP):
            assert platform.backends[resource].utilization(1e6) == 0.0
