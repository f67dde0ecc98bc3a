"""Tests for the integrated NDP platform (locations, movement, energy)."""

import dataclasses

import pytest

from repro.common import (DataLocation, KIB, MIB, OpType, Resource,
                          SimulationError)
from repro.core.coherence import PageCoherenceState
from repro.core.platform import PlatformConfig, SSDPlatform
from repro.dram.cxl import CXLPuDConfig
from repro.dram.dram import DRAMDevice
from repro.energy.model import EnergyAccount
from repro.ssd.config import small_ssd_config


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


class TestPlatformLocations:
    def test_dataset_starts_in_flash(self, platform):
        platform.setup_dataset(range(64))
        assert platform.location_of(3) is DataLocation.FLASH
        assert {platform.location_of(lpa) for lpa in range(64)} == {
            DataLocation.FLASH}

    def test_ensure_runs_at_moves_and_tracks(self, platform):
        platform.setup_dataset(range(16))
        end = platform.ensure_runs_at(0.0, [(0, 2)], DataLocation.SSD_DRAM)
        assert end > 0
        assert platform.location_of(0) is DataLocation.SSD_DRAM
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
        assert platform.location_of(0) is DataLocation.FLASH
        assert platform.location_of(7) is DataLocation.SSD_DRAM

    @pytest.mark.parametrize("field", ["dram_compute_window_bytes",
                                       "sram_window_bytes",
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
            sram_window_bytes=page, host_cache_bytes=page))
        assert platform._host_window.capacity_pages == 1

    def test_mark_produced_sets_residence(self, platform):
        platform.setup_dataset(range(8))
        platform.mark_produced_run(0.0, (1, 2), DataLocation.SSD_DRAM)
        assert platform.location_of(1) is DataLocation.SSD_DRAM
        assert platform.coherence.entry(2).state is PageCoherenceState.DIRTY

    def test_sram_to_dram_page_is_a_dram_write(self, platform):
        platform.setup_dataset(range(4))
        platform.ensure_runs_at(0.0, [(0, 1)], DataLocation.CTRL_SRAM)
        dram = platform.dram
        read, written = dram.bytes_read, dram.bytes_written
        platform.ensure_runs_at(0.0, [(0, 1)], DataLocation.SSD_DRAM)
        assert platform.movement.sram_to_dram_pages == 1
        assert dram.bytes_written == written + platform.page_size
        assert dram.bytes_read == read

    def test_host_transfers_tracked(self, platform):
        platform.setup_dataset(range(4))
        platform.ensure_runs_at(0.0, [(0, 1)], DataLocation.HOST)
        assert platform.movement.host_pages == 1
        assert platform.ssd.nvme.bytes_to_host > 0


class TestMoveEstimates:
    def test_same_location_is_free(self, platform):
        assert platform.estimate_move_latency(DataLocation.FLASH,
                                              DataLocation.FLASH, 5) == 0.0

    def test_flash_to_dram_cheaper_than_dram_to_flash(self, platform):
        to_dram = platform.estimate_move_latency(DataLocation.FLASH,
                                                 DataLocation.SSD_DRAM, 1)
        to_flash = platform.estimate_move_latency(DataLocation.SSD_DRAM,
                                                  DataLocation.FLASH, 1)
        assert to_flash > to_dram  # programming is far slower than reading

    def test_estimates_scale_with_page_count(self, platform):
        one = platform.estimate_move_latency(DataLocation.FLASH,
                                             DataLocation.SSD_DRAM, 1)
        four = platform.estimate_move_latency(DataLocation.FLASH,
                                              DataLocation.SSD_DRAM, 4)
        assert four == pytest.approx(4 * one)

    def test_negative_page_count_raises(self, platform):
        with pytest.raises(SimulationError, match="-1 pages"):
            platform.estimate_move_latency(DataLocation.FLASH,
                                           DataLocation.SSD_DRAM, -1)
        assert platform.estimate_move_latency(
            DataLocation.FLASH, DataLocation.SSD_DRAM, 0) == 0.0


class TestComputeDispatch:
    def test_compute_latency_ordering_for_bitwise(self, platform):
        # For bulk bitwise work, PuD-SSD is fastest, ISP slowest per op.
        size = 16 * KIB
        pud = platform.compute_latency(Resource.PUD, OpType.AND, size, 8)
        isp = platform.compute_latency(Resource.ISP, OpType.AND, size, 8)
        assert pud < isp

    def test_ifp_multiplication_is_expensive(self, platform):
        size = 16 * KIB
        ifp_mul = platform.compute_latency(Resource.IFP, OpType.MUL, size, 8)
        pud_mul = platform.compute_latency(Resource.PUD, OpType.MUL, size, 8)
        assert ifp_mul > pud_mul

    def test_unsupported_ops_reported(self, platform):
        assert not platform.supports(Resource.IFP, OpType.SELECT)
        assert not platform.supports(Resource.PUD, OpType.GATHER)
        assert platform.supports(Resource.ISP, OpType.GATHER)

    def test_record_compute_accumulates_energy(self, platform):
        before = platform.energy.compute_nj
        platform.record_compute(0.0, Resource.PUD, OpType.ADD, 16 * KIB, 8)
        assert platform.energy.compute_nj - before == pytest.approx(
            platform.backends[Resource.PUD].operation_energy(
                OpType.ADD, 16 * KIB, 8))

    def test_pud_operation_occupies_the_dram_banks_it_touches(self, platform):
        # 16 KiB spans the first two rows, i.e. banks 0 and 1.
        latency = platform.compute_latency(Resource.PUD, OpType.MUL,
                                           16 * KIB, 8)
        platform.record_compute(0.0, Resource.PUD, OpType.MUL, 16 * KIB, 8)
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
            platform.record_compute(0.0, cxl.resource, OpType.AND,
                                    16 * KIB, 8)
        assert cxl.link_backlog_ns(0.0) > 0.0
        assert cxl.link_backlog_ns(1e9) == 0.0
        # The burst serializes on the expander's own banks, not the SSD's.
        assert (max(bank.busy_until for bank in cxl.dram.banks) >
                cxl.operation_latency(OpType.AND, 16 * KIB, 8))
        assert all(bank.busy_until == 0.0 for bank in platform.dram.banks)

    def test_bandwidth_utilization_zero_before_activity(self, platform):
        for resource in (Resource.ISP, Resource.PUD, Resource.IFP):
            assert platform.bandwidth_utilization(resource, 1e6) == 0.0
