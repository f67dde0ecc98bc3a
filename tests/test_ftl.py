"""Tests for the FTL, page allocator, garbage collector and wear-leveler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import SimulationError
from repro.ssd.allocator import PageAllocator
from repro.ssd.config import FTLConfig, NANDConfig, SSDConfig
from repro.ssd.ftl import FlashTranslationLayer, MappingCache
from repro.ssd.gc import GarbageCollector
from repro.ssd.nand import NANDArray
from repro.ssd.ssd import SSD
from repro.ssd.wear_leveling import WearLeveler


def nand_config() -> NANDConfig:
    return NANDConfig(channels=2, dies_per_channel=2, planes_per_die=1,
                      blocks_per_plane=8, pages_per_block=8)


def make_ftl(coverage: float = 0.5) -> FlashTranslationLayer:
    config = FTLConfig(mapping_cache_coverage=coverage)
    return FlashTranslationLayer(NANDArray(nand_config()), config)


class TestMappingCache:
    def test_lru_eviction(self):
        cache = MappingCache(capacity_entries=2)
        from repro.ssd.nand import PhysicalPageAddress
        a = PhysicalPageAddress(0, 0, 0, 0, 0)
        cache.insert(1, a)
        cache.insert(2, a)
        cache.lookup(1)          # make 1 most recently used
        cache.insert(3, a)       # evicts 2
        assert cache.lookup(2) is None
        assert cache.lookup(1) is not None
        assert cache.lookup(3) is not None

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            MappingCache(0)


class TestAllocator:
    def test_channel_striping_balances_channels(self):
        array = NANDArray(nand_config())
        allocator = PageAllocator(array)
        for lpa in range(32):
            allocator.allocate(lpa)
        balance = allocator.allocation_balance()
        assert max(balance.values()) - min(balance.values()) <= 1

    def test_colocated_allocation_uses_one_block(self):
        array = NANDArray(nand_config())
        allocator = PageAllocator(array)
        addresses = allocator.allocate_colocated(range(6))
        blocks = {(a.channel, a.die, a.plane, a.block) for a in addresses}
        assert len(blocks) == 1

    def test_colocation_larger_than_block_raises(self):
        array = NANDArray(nand_config())
        allocator = PageAllocator(array)
        with pytest.raises(SimulationError):
            allocator.allocate_colocated(range(100))


class TestFTL:
    def test_write_then_lookup(self):
        ftl = make_ftl()
        ppa = ftl.write(10)
        found, latency = ftl.lookup(10)
        assert found == ppa
        assert latency > 0

    def test_overwrite_invalidates_previous_page(self):
        ftl = make_ftl()
        first = ftl.write(10)
        second = ftl.write(10)
        assert first != second
        assert ftl.array.block(first.block_address()).invalid_pages == 1

    def test_cache_hit_is_faster_than_miss(self):
        ftl = make_ftl(coverage=0.01)
        ftl.write(1)
        _, hit_latency = ftl.lookup(1)
        # Unmapped, never-cached page incurs the flash-resident lookup cost.
        _, miss_latency = ftl.lookup(999)
        assert hit_latency < miss_latency

    def test_hit_rate_statistics(self):
        ftl = make_ftl()
        ftl.write(1)
        ftl.lookup(1)
        ftl.lookup(1)
        assert ftl.stats.hit_rate > 0.5

    def test_trim_unmaps(self):
        ftl = make_ftl()
        ftl.write(5)
        ftl.trim(5)
        assert ftl.translate(5) is None

    def test_relocate_moves_page(self):
        ftl = make_ftl()
        original = ftl.write(7)
        moved = ftl.relocate(7)
        assert moved != original
        assert ftl.translate(7) == moved
        assert ftl.stats.relocated_pages == 1

    def test_relocate_unmapped_raises(self):
        with pytest.raises(SimulationError):
            make_ftl().relocate(123)

    def test_write_colocated_groups_share_block(self):
        ftl = make_ftl()
        mapping = ftl.write_colocated([1, 2, 3])
        blocks = {(p.channel, p.die, p.plane, p.block)
                  for p in mapping.values()}
        assert len(blocks) == 1

    @given(st.lists(st.integers(min_value=0, max_value=30),
                    min_size=1, max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_mapping_stays_consistent_under_overwrites(self, lpas):
        ftl = make_ftl()
        for lpa in lpas:
            ftl.write(lpa)
        # Every mapped LPA must point at a valid page storing that LPA.
        for lpa in set(lpas):
            ppa = ftl.translate(lpa)
            assert ppa is not None
            assert ftl.array.read_page(ppa) == lpa
        # Valid page count equals number of distinct live LPAs.
        assert ftl.array.valid_page_count() == len(set(lpas))


class TestGarbageCollection:
    def test_gc_not_triggered_when_free(self):
        ftl = make_ftl()
        gc = GarbageCollector(ftl, ftl.config)
        assert not gc.needs_collection()
        assert gc.select_victim() is None

    def test_gc_reclaims_invalid_blocks(self):
        ssd = SSD(SSDConfig(nand=nand_config(),
                            ftl=FTLConfig(gc_start_threshold=0.95,
                                          gc_stop_threshold=0.96)))
        # Overwrite the same LPAs repeatedly to create invalid pages; each
        # write lands after the previous maintenance chain finished.
        t = 0.0
        for _ in range(4):
            for lpa in range(16):
                t = max(t, ssd.background._busy_until)
                t = ssd.write_page(t, lpa)
        # The background engine relocates the victims' valid pages and
        # erases them on the shared channels.
        assert ssd.background.gc_erased_blocks > 0
        assert ssd.background.busy_ns > 0.0
        assert set(ssd.ftl.mapping) == set(range(16))

    def test_victim_selection_prefers_most_invalid(self):
        ftl = make_ftl()
        for _ in range(3):
            for lpa in range(8):
                ftl.write(lpa)
        gc = GarbageCollector(ftl, ftl.config)
        victim = gc.select_victim()
        assert victim is not None
        assert victim.invalid_pages > 0


class TestWearLeveling:
    def test_balanced_array_needs_no_leveling(self):
        ftl = make_ftl()
        leveler = WearLeveler(ftl, ftl.config)
        assert not leveler.needs_leveling()
        assert leveler.imbalance() == 1.0
        assert leveler.coldest_block() is None

    def test_imbalance_detection_after_erases(self):
        ftl = make_ftl()
        leveler = WearLeveler(ftl, FTLConfig(wear_leveling_threshold=1.1))
        for lpa in range(4):
            ftl.write(lpa)
        block = ftl.translate(0).block_address()
        # Erase an unrelated free block many times to skew the counters
        # (blocks materialize lazily, so probe the plane for a free index).
        plane = ftl.array.die(0, 0).plane(0)
        free_index = next(index for index in range(plane.block_count)
                          if plane.is_free_block(index))
        free_block = plane.block(free_index)
        for _ in range(5):
            ftl.array.erase_block(free_block.address)
        assert leveler.imbalance() > 1.1
        assert leveler.needs_leveling()
        # The migration victim is the least-erased block holding data.
        coldest = leveler.coldest_block()
        assert coldest.address == block
        assert coldest.erase_count == 0 and coldest.valid_pages > 0
