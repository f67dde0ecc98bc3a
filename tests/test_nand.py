"""Tests for the NAND flash array model."""

import pytest
from hypothesis import given, strategies as st

from repro.common import SimulationError
from repro.ssd.config import NANDConfig
from repro.ssd.nand import (FlashBlock, NANDArray, PageState,
                            PhysicalBlockAddress)


def small_nand() -> NANDConfig:
    return NANDConfig(channels=2, dies_per_channel=2, planes_per_die=1,
                      blocks_per_plane=8, pages_per_block=16)


class TestFlashBlock:
    def block(self) -> FlashBlock:
        return FlashBlock(PhysicalBlockAddress(0, 0, 0, 0), pages=4)

    def test_program_in_order(self):
        block = self.block()
        assert block.program(lpa=10) == 0
        assert block.program(lpa=11) == 1
        assert block.valid_pages == 2
        assert block.free_pages == 2

    def test_program_full_block_raises(self):
        block = self.block()
        for lpa in range(4):
            block.program(lpa)
        with pytest.raises(SimulationError):
            block.program(99)

    def test_invalidate_then_states(self):
        block = self.block()
        block.program(5)
        block.invalidate(0)
        assert block.state_of(0) is PageState.INVALID
        assert block.valid_pages == 0
        assert block.invalid_pages == 1

    def test_invalidate_free_page_raises(self):
        with pytest.raises(SimulationError):
            self.block().invalidate(0)

    def test_invalidate_already_invalid_page_raises(self):
        block = self.block()
        block.program(5)
        block.invalidate(0)
        with pytest.raises(SimulationError, match="not valid"):
            block.invalidate(0)
        assert block.invalid_pages == 1
        assert block.state_of(0) is PageState.INVALID

    def test_erase_resets_and_counts(self):
        block = self.block()
        block.program(1)
        block.erase()
        assert block.erase_count == 1
        assert block.valid_pages == 0
        assert block.write_cursor == 0
        assert block.state_of(0) is PageState.FREE

    def test_valid_lpas_excludes_invalidated(self):
        block = self.block()
        block.program(1)
        block.program(2)
        block.invalidate(0)
        assert block.valid_lpas() == [2]

    def test_page_states_dense_view(self):
        block = self.block()
        block.program(1)
        block.invalidate(0)
        block.program(2)
        assert block.page_states == [PageState.INVALID, PageState.VALID,
                                     PageState.FREE, PageState.FREE]


class TestNANDArray:
    def test_geometry(self):
        array = NANDArray(small_nand())
        assert array.total_blocks == 2 * 2 * 1 * 8
        assert array.free_block_count() == array.total_blocks

    def test_program_read_roundtrip(self):
        array = NANDArray(small_nand())
        address = PhysicalBlockAddress(0, 0, 0, 0)
        ppa = array.program_page(address, lpa=42)
        assert array.read_page(ppa) == 42

    def test_free_block_counter_tracks_programs_and_erases(self):
        array = NANDArray(small_nand())
        address = PhysicalBlockAddress(1, 0, 0, 3)
        before = array.free_block_count()
        array.program_page(address, 7)
        assert array.free_block_count() == before - 1
        array.invalidate_page(array.block(address).address.page(0))
        array.erase_block(address)
        assert array.free_block_count() == before

    def test_counters(self):
        array = NANDArray(small_nand())
        address = PhysicalBlockAddress(0, 1, 0, 0)
        ppa = array.program_page(address, 1)
        array.read_page(ppa)
        array.invalidate_page(ppa)
        array.erase_block(address)
        assert array.programs == 1
        assert array.reads == 1
        assert array.erases == 1

    def test_invalidate_page_rejects_free_and_invalid_pages(self):
        array = NANDArray(small_nand())
        ppa = array.program_page(PhysicalBlockAddress(1, 1, 0, 5), 3)
        with pytest.raises(SimulationError, match="not valid"):
            array.invalidate_page(ppa._replace(page=1))  # free
        array.invalidate_page(ppa)
        assert array.read_page(ppa) is None
        with pytest.raises(SimulationError, match="not valid"):
            array.invalidate_page(ppa)  # already invalid

    def test_erase_count_stats(self):
        array = NANDArray(small_nand())
        address = PhysicalBlockAddress(0, 0, 0, 0)
        array.program_page(address, 1)
        array.invalidate_page(address.page(0))
        array.erase_block(address)
        minimum, mean, maximum = array.erase_count_stats()
        assert minimum == 0
        assert maximum == 1
        assert 0 < mean < 1

    def test_timing_helpers_match_config(self):
        config = small_nand()
        array = NANDArray(config)
        assert array.read_time_ns() == config.read_latency_ns
        assert array.program_time_ns() == config.program_latency_ns
        assert array.erase_time_ns() == config.erase_latency_ns

    @given(st.integers(min_value=1, max_value=16))
    def test_valid_page_count_matches_programs(self, pages):
        array = NANDArray(small_nand())
        address = PhysicalBlockAddress(0, 0, 0, 0)
        for lpa in range(pages):
            array.program_page(address, lpa)
        assert array.valid_page_count() == pages
