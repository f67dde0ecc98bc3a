"""Tests for the device-lifetime subsystem.

Covers the drive-age profiles (determinism, validation, free-space
targeting), the background flash engine (GC activity on aged drives,
no maintenance at all on fresh ones), the adaptive-FTL
policy axis, the deterministic tie-breaks of victim selection, and the
core safety property: maintenance never loses a valid page.
"""

import dataclasses
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import ConfigurationError, SimulationError
from repro.core.platform import PlatformConfig, SSDPlatform
from repro.experiments import ExperimentConfig, platform_variant
from repro.experiments.runner import (ExperimentRunner, RunSpec,
                                      execute_run_spec)
from repro.ssd.config import (FTLConfig, GCVictimPolicy, NANDConfig,
                              SSDConfig, small_ssd_config)
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.gc import GarbageCollector
from repro.ssd.lifetime import (DRIVE_AGE_PROFILES, MID_LIFE_PROFILE,
                                NEAR_EOL_PROFILE, DriveAgeProfile,
                                apply_drive_age, drive_age_image)
from repro.ssd.lifetime import engine as lifetime_engine
from repro.ssd.nand import NANDArray, PageState, PhysicalBlockAddress
from repro.ssd.ssd import SSD
from repro.ssd.wear_leveling import WearLeveler
from repro.workloads import (ScaleFloorWarning, ZipfParams, ZipfWorkload,
                             workload_by_name)


def tiny_nand() -> NANDConfig:
    return NANDConfig(channels=2, dies_per_channel=1, planes_per_die=1,
                      blocks_per_plane=8, pages_per_block=4)


def tiny_ssd(ftl: FTLConfig = None) -> SSD:
    config = SSDConfig(nand=tiny_nand(), ftl=ftl or FTLConfig())
    return SSD(config)


def aged_small_ssd(profile: DriveAgeProfile,
                   ftl: FTLConfig = None) -> SSD:
    config = small_ssd_config()
    if ftl is not None:
        config = dataclasses.replace(config, ftl=ftl)
    ssd = SSD(config)
    apply_drive_age(ssd, profile)
    return ssd


def assert_readback_intact(ssd: SSD) -> None:
    """Every mapped LPA must still be stored at its mapped location."""
    for lpa, ppa in ssd.ftl.mapping.items():
        assert ssd.array.read_page(ppa) == lpa, (
            f"LPA {lpa} lost: mapping points at {ppa} but the block does "
            "not hold it")


# ------------------------------------------------------------------------
# Deterministic tie-breaks (satellite: victim selection must not depend
# on block materialization order)
# ------------------------------------------------------------------------


class TestTieBreaks:
    def _two_equal_victims(self, ftl: FlashTranslationLayer):
        """Two blocks on different channels, same invalid/valid counts."""
        array = ftl.array
        for channel in (1, 0):  # deliberately materialize high first
            block = array.block(PhysicalBlockAddress(channel, 0, 0, 0))
            for page, lpa in enumerate((100 + channel * 10,
                                        101 + channel * 10)):
                ppa = array.program_page(block.address, lpa)
                ftl.mapping[lpa] = ppa
            array.invalidate_page(block.address.page(0))
            del ftl.mapping[100 + channel * 10]
        return array

    def test_gc_victim_tie_breaks_on_lowest_address(self):
        ftl = FlashTranslationLayer(NANDArray(tiny_nand()), FTLConfig())
        self._two_equal_victims(ftl)
        gc = GarbageCollector(ftl, ftl.config)
        victim = gc.select_victim()
        assert victim is not None
        # Channel 1's block was materialized first; address order must win.
        assert victim.address == PhysicalBlockAddress(0, 0, 0, 0)

    def test_gc_victim_prefers_more_invalid_over_address(self):
        ftl = FlashTranslationLayer(NANDArray(tiny_nand()), FTLConfig())
        array = self._two_equal_victims(ftl)
        # Tip the higher-address block to 2 invalid pages; it must win now.
        high = array.block(PhysicalBlockAddress(1, 0, 0, 0))
        array.invalidate_page(high.address.page(1))
        del ftl.mapping[111]
        victim = GarbageCollector(ftl, ftl.config).select_victim()
        assert victim.address == high.address

    def test_wear_leveler_cold_pick_tie_breaks_on_lowest_address(self):
        ftl = FlashTranslationLayer(NANDArray(tiny_nand()), FTLConfig())
        array = self._two_equal_victims(ftl)
        for channel in (0, 1):  # equal erase counts, valid data in both
            array.block(PhysicalBlockAddress(channel, 0, 0, 0)
                        ).erase_count = 7
        leveler = WearLeveler(ftl, ftl.config)
        coldest = leveler.coldest_block()
        assert coldest is not None
        assert coldest.address == PhysicalBlockAddress(0, 0, 0, 0)


# ------------------------------------------------------------------------
# Adaptive-FTL policy axis
# ------------------------------------------------------------------------


class TestAdaptiveFTL:
    def test_cost_benefit_prefers_emptier_victim(self):
        """Equal invalid counts: cost-benefit weighs remaining valid data
        (relocation cost), greedy does not."""
        ftl = FlashTranslationLayer(
            NANDArray(tiny_nand()),
            FTLConfig(gc_victim_policy=GCVictimPolicy.COST_BENEFIT))
        array = ftl.array
        # Block A (channel 0): 1 invalid, 3 valid -- expensive to reclaim.
        a = array.block(PhysicalBlockAddress(0, 0, 0, 0))
        for lpa in (200, 201, 202, 203):
            ftl.mapping[lpa] = array.program_page(a.address, lpa)
        array.invalidate_page(a.address.page(0))
        del ftl.mapping[200]
        # Block B (channel 1): 1 invalid, 1 valid -- cheap to reclaim.
        b = array.block(PhysicalBlockAddress(1, 0, 0, 0))
        for lpa in (300, 301):
            ftl.mapping[lpa] = array.program_page(b.address, lpa)
        array.invalidate_page(b.address.page(0))
        del ftl.mapping[300]
        victim = GarbageCollector(ftl, ftl.config).select_victim()
        assert victim.address == b.address
        # Greedy ties on invalid count and falls back to address order.
        greedy_ftl = FlashTranslationLayer(array, FTLConfig())
        greedy = GarbageCollector(greedy_ftl, greedy_ftl.config)
        assert greedy.select_victim().address == a.address

    def test_hot_cold_separation_uses_distinct_active_blocks(self):
        ftl = FlashTranslationLayer(
            NANDArray(tiny_nand()), FTLConfig(hot_cold_separation=True))
        hot = ftl.write(0)
        ftl.write(1)  # advance the stripe back around
        cold_ppa = ftl.allocator.allocate(50, cold=True)
        # Same (channel, die, plane) stripe position, different block:
        # the cold stream must not interleave into the hot active block.
        assert (cold_ppa.channel, cold_ppa.die, cold_ppa.plane) == (
            hot.channel, hot.die, hot.plane)
        assert cold_ppa.block != hot.block

    def test_relocate_defaults_to_configured_separation(self):
        ftl = FlashTranslationLayer(
            NANDArray(tiny_nand()), FTLConfig(hot_cold_separation=True))
        hot = ftl.write(0)
        ftl.write(1)  # wrap the 2-channel stripe back to channel 0
        relocated = ftl.relocate(0)
        assert relocated.channel == hot.channel
        assert relocated.block != hot.block


# ------------------------------------------------------------------------
# Drive-age profiles
# ------------------------------------------------------------------------


class TestDriveAgeProfiles:
    def test_profiles_are_deterministic_under_fixed_seed(self):
        first = aged_small_ssd(NEAR_EOL_PROFILE)
        second = aged_small_ssd(NEAR_EOL_PROFILE)
        assert (first.array.erase_count_stats()
                == second.array.erase_count_stats())
        assert (first.array.free_block_count()
                == second.array.free_block_count())
        assert sorted(first.ftl.mapping.items()) == sorted(
            second.ftl.mapping.items())

    def test_seed_changes_the_fragmentation(self):
        base = aged_small_ssd(NEAR_EOL_PROFILE)
        reseeded = aged_small_ssd(
            dataclasses.replace(NEAR_EOL_PROFILE, seed=1))
        assert sorted(base.ftl.mapping.items()) != sorted(
            reseeded.ftl.mapping.items())

    @pytest.mark.parametrize("name", sorted(DRIVE_AGE_PROFILES))
    def test_free_fraction_lands_near_target(self, name):
        profile = DRIVE_AGE_PROFILES[name]
        ssd = aged_small_ssd(profile)
        blocks_per_plane = ssd.config.nand.blocks_per_plane
        # Quantized per plane to max(2, round(f * blocks)).
        expected = max(2, round(profile.free_fraction * blocks_per_plane)
                       ) / blocks_per_plane
        assert ssd.ftl.free_block_fraction() == pytest.approx(expected)

    def test_filler_pages_live_above_logical_capacity(self):
        ssd = aged_small_ssd(MID_LIFE_PROFILE)
        assert ssd.ftl.mapping  # some valid filler registered
        assert min(ssd.ftl.mapping) >= ssd.config.nand.pages
        assert_readback_intact(ssd)

    def test_operation_counters_reset_after_aging(self):
        ssd = aged_small_ssd(NEAR_EOL_PROFILE)
        assert (ssd.array.reads, ssd.array.programs, ssd.array.erases) == (
            0, 0, 0)
        # The erases==0 gate keeps the wear-leveler's imbalance at 1.0
        # until this run actually erases something.
        assert ssd.wear_leveler.imbalance() == 1.0

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            DriveAgeProfile(free_fraction=0.0)
        with pytest.raises(ConfigurationError):
            DriveAgeProfile(fragment_invalid_fraction=1.5)
        with pytest.raises(ConfigurationError):
            DriveAgeProfile(fragment_erase_count_min=10,
                            fragment_erase_count_max=5)
        with pytest.raises(ConfigurationError):
            DriveAgeProfile(prior_write_amplification=0.5)


def replay_drive_age(ssd: SSD, profile: DriveAgeProfile) -> None:
    """Reference aging: the page-by-page program/invalidate replay.

    Walks the same geometry order and draws the profile's RNG stream in
    the same order as :func:`apply_drive_age` (per fragment block: one
    ``random()`` per filler page, then one ``randint``).
    """
    array, ftl, nand = ssd.array, ssd.ftl, ssd.array.config
    rng = random.Random(profile.seed)
    filler_lpa = nand.pages
    fill_pages = max(1, int(profile.fragment_fill_fraction *
                            nand.pages_per_block))
    for plane in array.iter_planes():
        blocks = plane.block_count
        fragmented = min(profile.fragmented_blocks_per_plane,
                         max(0, blocks - 2))
        free_target = max(2, round(profile.free_fraction * blocks))
        cold = max(0, blocks - fragmented - free_target)
        array.mark_cold_blocks(plane.channel, plane.die, plane.plane, cold,
                               profile.cold_erase_count)
        for offset in range(fragmented):
            block = plane.block(cold + offset)
            for _ in range(fill_pages):
                ppa = array.program_page(block.address, filler_lpa)
                if rng.random() < profile.fragment_invalid_fraction:
                    array.invalidate_page(ppa)
                else:
                    ftl.mapping[filler_lpa] = ppa
                filler_lpa += 1
            block.erase_count = rng.randint(
                profile.fragment_erase_count_min,
                profile.fragment_erase_count_max)
    array.reads = array.programs = array.erases = 0


def block_states(ssd: SSD) -> dict:
    return {block.address: (block.write_cursor,
                            [block.stored_lpa_of(page)
                             for page in range(block.pages)],
                            [page for page in range(block.write_cursor)
                             if block.state_of(page) is PageState.INVALID],
                            block.erase_count)
            for block in ssd.array.iter_blocks()}


class TestBulkAging:
    @pytest.mark.parametrize("profile", [
        *(DRIVE_AGE_PROFILES[name] for name in sorted(DRIVE_AGE_PROFILES)),
        dataclasses.replace(NEAR_EOL_PROFILE, seed=7,
                            fragment_fill_fraction=0.6),
    ], ids=[*sorted(DRIVE_AGE_PROFILES), "near-eol-reseeded"])
    def test_bulk_aging_equals_page_by_page_replay(self, profile):
        bulk = aged_small_ssd(profile)
        reference = SSD(small_ssd_config())
        replay_drive_age(reference, profile)
        assert block_states(bulk) == block_states(reference)
        assert list(bulk.ftl.mapping.items()) == list(
            reference.ftl.mapping.items())
        assert (bulk.array.free_block_count()
                == reference.array.free_block_count())
        assert (bulk.array.erase_count_stats()
                == reference.array.erase_count_stats())
        assert (bulk.array.reads, bulk.array.programs,
                bulk.array.erases) == (0, 0, 0)

    def test_fill_rejects_a_programmed_block(self):
        array = NANDArray(tiny_nand())
        address = PhysicalBlockAddress(0, 0, 0, 3)
        array.program_page(address, 0)
        with pytest.raises(SimulationError, match="not erased"):
            array.program_fragment(address, 2, {0: 1, 1: 2}, set())

    @pytest.mark.parametrize("lpas, invalid", [
        (range(5), set()),   # one page more than the block holds
        ([], set()),         # an empty fill would leave the block free
        (range(2), {2}),     # invalid page outside the fill
    ])
    def test_fill_rejects_a_fill_that_does_not_fit(self, lpas, invalid):
        array = NANDArray(tiny_nand())
        free_before = array.free_block_count()
        stored = {page: lpa for page, lpa in enumerate(lpas)
                  if page not in invalid}
        with pytest.raises(SimulationError):
            array.program_fragment(PhysicalBlockAddress(0, 0, 0, 3),
                                   len(lpas), stored, invalid)
        assert array.free_block_count() == free_before
        assert array.block(PhysicalBlockAddress(0, 0, 0, 3)
                           ).write_cursor == 0

    @pytest.mark.parametrize("stored, invalid", [
        ({0: 0, 1: 1}, {1}),  # a page both valid and invalid
        ({0: 0, 2: 1}, set()),  # a valid page outside the fill
        ({0: 0}, set()),      # a page of the fill neither valid nor invalid
    ], ids=["overlap", "outside", "gap"])
    def test_fill_rejects_a_map_that_does_not_partition_it(self, stored,
                                                           invalid):
        array = NANDArray(tiny_nand())
        free_before = array.free_block_count()
        with pytest.raises(SimulationError, match="partition"):
            array.program_fragment(PhysicalBlockAddress(0, 0, 0, 3), 2,
                                   stored, invalid)
        assert array.free_block_count() == free_before
        assert array.block(PhysicalBlockAddress(0, 0, 0, 3)
                           ).write_cursor == 0


def drive_state(ssd: SSD) -> tuple:
    """Everything a drive may mutate: blocks, mapping and free count."""
    return (block_states(ssd), list(ssd.ftl.mapping.items()),
            ssd.array.free_block_count())


class TestDriveAgeImage:
    def test_image_is_built_once_per_profile_and_geometry(self):
        drive_age_image.cache_clear()
        config = small_platform_config(drive_age=NEAR_EOL_PROFILE)
        platforms = [SSDPlatform(config) for _ in range(3)]
        info = drive_age_image.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        states = [drive_state(platform.ssd) for platform in platforms]
        assert states[0] == states[1] == states[2]

    def test_reseeded_profile_or_new_geometry_gets_its_own_image(self):
        nand = small_ssd_config().nand
        base = drive_age_image(NEAR_EOL_PROFILE, nand)
        assert drive_age_image(NEAR_EOL_PROFILE, nand) is base
        reseeded = drive_age_image(
            dataclasses.replace(NEAR_EOL_PROFILE, seed=7), nand)
        resized = drive_age_image(
            NEAR_EOL_PROFILE, dataclasses.replace(nand, blocks_per_plane=32))
        assert reseeded is not base and resized is not base
        assert reseeded.fragments != base.fragments
        assert resized.cold_blocks != base.cold_blocks

    def test_image_cache_is_bounded(self):
        nand = small_ssd_config().nand
        for seed in range(12):
            drive_age_image(dataclasses.replace(NEAR_EOL_PROFILE, seed=seed),
                            nand)
        info = drive_age_image.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize

    def test_drives_from_one_image_share_no_mutable_state(self):
        first = aged_small_ssd(NEAR_EOL_PROFILE)
        second = aged_small_ssd(NEAR_EOL_PROFILE)
        untouched = drive_state(second)
        t = 0.0
        for lpa in range(64):  # overwrites and background GC on `first`
            t = first.write_page(t, lpa % 16)
        assert first.background.gc_relocated_pages > 0
        assert first.background.gc_erased_blocks > 0
        assert drive_state(first) != untouched
        assert drive_state(second) == untouched
        # ...and a drive installed after the churn still gets the image.
        assert drive_state(aged_small_ssd(NEAR_EOL_PROFILE)) == untouched


def aged_tiny_plane():
    """One 16-block plane: blocks 0-9 cold, 10-11 fragments, 12-15 free."""
    nand = NANDConfig(channels=1, dies_per_channel=1, planes_per_die=1,
                      blocks_per_plane=16, pages_per_block=4)
    ssd = SSD(SSDConfig(nand=nand, ftl=FTLConfig()))
    apply_drive_age(ssd, DriveAgeProfile(free_fraction=0.25,
                                         fragmented_blocks_per_plane=2))
    plane = ssd.array.die(0, 0).plane(0)
    assert plane.cold_blocks == 10
    return ssd, plane


def dense_find_free(plane, cursor: int):
    """Reference free-block search: every block, wrapping at the cursor."""
    for offset in range(plane.block_count):
        index = (cursor + offset) % plane.block_count
        if plane.is_free_block(index):
            return index
    return None


class TestFreeBlockSearch:
    def test_allocation_order_matches_a_dense_scan(self):
        ssd, plane = aged_tiny_plane()
        array, allocator = ssd.array, ssd.ftl.allocator
        cursor = 0
        picked = []
        # Erase events between searches; ``None`` means "search again".
        # Erasing behind the cursor forces the search to wrap past the
        # last block into ``[cold, cursor)``.
        events = [None] * 5 + [10, 13, None, None, None,
                               11, 12, None, None, None]
        for event in events:
            if event is not None:
                array.erase_block(PhysicalBlockAddress(0, 0, 0, event))
                continue
            expected = dense_find_free(plane, cursor)
            found = allocator._find_free_block(0, 0, 0)
            if expected is None:
                assert found is None
                continue
            assert found == PhysicalBlockAddress(0, 0, 0, expected)
            cursor = (expected + 1) % plane.block_count
            picked.append(expected)
            array.program_page(found, 1000 + len(picked))
        assert picked == [12, 13, 14, 15, 10, 13, 11, 12]

    def test_cold_blocks_cannot_materialize(self):
        _, plane = aged_tiny_plane()
        with pytest.raises(SimulationError, match="cold"):
            plane.block(0)
        with pytest.raises(SimulationError, match="cold"):
            plane.block(plane.cold_blocks - 1)
        plane.block(plane.cold_blocks)  # the first fragment is fine
        assert all(block.address.block >= plane.cold_blocks
                   for block in plane.materialized_blocks())


# ------------------------------------------------------------------------
# Background engine
# ------------------------------------------------------------------------


class TestBackgroundEngine:
    def test_aged_drive_generates_gc_traffic(self):
        ssd = aged_small_ssd(NEAR_EOL_PROFILE)
        engine = ssd.background
        t = 0.0
        for lpa in range(64):
            t = ssd.write_page(t, lpa)
        assert engine.gc_steps > 0
        assert engine.gc_relocated_pages > 0
        assert engine.gc_erased_blocks > 0
        assert engine.busy_ns > 0.0
        assert_readback_intact(ssd)

    def test_read_path_pulses_the_engine(self):
        ssd = aged_small_ssd(NEAR_EOL_PROFILE)
        engine = ssd.background
        ssd.populate(range(8))
        t = 0.0
        for lpa in range(8):
            t = ssd.read_page(t, lpa)
        assert engine.gc_steps > 0

    def test_background_chain_is_serialized(self):
        """A pulse inside the in-flight chain's window does nothing."""
        ssd = aged_small_ssd(NEAR_EOL_PROFILE)
        engine = ssd.background
        engine.pulse(0.0)
        first_steps = engine.gc_steps
        assert first_steps == 1
        engine.pulse(engine._busy_until / 2.0)
        assert engine.gc_steps == first_steps
        engine.pulse(engine._busy_until)
        assert engine.gc_steps == first_steps + 1

    def test_erase_counts_are_monotone_under_maintenance(self):
        ssd = aged_small_ssd(NEAR_EOL_PROFILE)
        before = dict()
        for block in ssd.array.iter_blocks():
            before[block.address] = block.erase_count
        t = 0.0
        for lpa in range(48):
            t = ssd.write_page(t, lpa)
        for block in ssd.array.iter_blocks():
            assert block.erase_count >= before.get(block.address, 0)
        assert ssd.array.erases > 0

    def test_wear_leveling_reduces_imbalance(self):
        ssd = tiny_ssd(FTLConfig(wear_leveling_threshold=1.2))
        ftl = ssd.ftl
        # Valid data in a never-erased block; hammer another block with
        # erases to skew the spread far past the threshold.
        for lpa in range(4):
            ftl.write(lpa)
        plane = ssd.array.die(1, 0).plane(0)
        free_index = next(index for index in range(plane.block_count)
                          if plane.is_free_block(index))
        hot = plane.block(free_index)
        for _ in range(12):
            ssd.array.erase_block(hot.address)
        leveler = ssd.wear_leveler
        assert leveler.needs_leveling()
        before = leveler.imbalance()
        engine = ssd.background
        engine.pulse(0.0)
        assert engine.wl_runs == 1
        assert engine.wl_migrated_pages > 0
        assert_readback_intact(ssd)
        assert leveler.imbalance() <= before

    def test_wl_budget_caps_migrated_blocks(self, monkeypatch):
        # The engine reads its budget at pulse time, so patching the
        # module constant after construction still binds.
        ssd = tiny_ssd(FTLConfig(wear_leveling_threshold=1.01))
        monkeypatch.setattr(lifetime_engine, "WL_BLOCKS_PER_RUN", 1)
        engine = ssd.background
        for lpa in range(8):
            ssd.ftl.write(lpa)
        plane = ssd.array.die(1, 0).plane(0)
        free_index = next(index for index in range(plane.block_count)
                          if plane.is_free_block(index))
        for _ in range(50):
            ssd.array.erase_block(plane.block(free_index).address)
        now = 0.0
        for _ in range(64):
            now = max(now, engine._busy_until)
            engine.pulse(now)
            now += 1.0
        assert engine.wl_erased_blocks <= 1

    def test_idle_pulse_rearms_when_free_blocks_change(self, monkeypatch):
        ssd = tiny_ssd(FTLConfig(gc_start_threshold=0.30,
                                 gc_stop_threshold=0.35))
        engine, ftl = ssd.background, ssd.ftl
        checks = []
        needs_collection = ssd.gc.needs_collection
        monkeypatch.setattr(ssd.gc, "needs_collection",
                            lambda: checks.append(1) or needs_collection())
        lpa = 0
        while True:
            engine.pulse(0.0)
            checked = len(checks)
            # Nothing changed since the drive was found idle: the pulse
            # returns without re-checking anything.
            engine.pulse(0.0)
            assert len(checks) == checked
            assert engine.gc_steps == 0
            # Overwrites of a few LPAs leave invalid pages for a victim.
            ftl.write(lpa % 6)
            lpa += 1
            if ftl.free_block_fraction() < 0.30:
                break
        engine.pulse(0.0)
        assert engine.gc_steps == 1

    def test_idle_pulse_rearms_after_an_erase(self):
        ssd = tiny_ssd(FTLConfig(wear_leveling_threshold=1.2))
        engine = ssd.background
        for lpa in range(4):
            ssd.ftl.write(lpa)
        engine.pulse(0.0)
        engine.pulse(0.0)
        assert engine.wl_runs == 0
        # Erasing a free block leaves the free-block count as it was; the
        # erase alone skews the wear spread past the threshold.
        plane = ssd.array.die(1, 0).plane(0)
        free_index = next(index for index in range(plane.block_count)
                          if plane.is_free_block(index))
        free_blocks = ssd.array.free_block_count()
        ssd.array.erase_block(plane.block(free_index).address)
        assert ssd.array.free_block_count() == free_blocks
        engine.pulse(0.0)
        assert engine.wl_runs == 1

    def test_critical_pressure_stalls_the_foreground(self):
        """Below half the GC start threshold a write waits behind GC.

        Two 64-block planes aged to two free blocks each (4/128, just
        above the 0.025 critical fraction): the first write opens a block
        and drops the drive below it.  The pinned values were recorded
        before the drive-age image replaced the direct aging walk.
        """
        nand = NANDConfig(channels=2, dies_per_channel=1, planes_per_die=1,
                          blocks_per_plane=64, pages_per_block=16)
        ssd = SSD(SSDConfig(nand=nand, ftl=FTLConfig()))
        apply_drive_age(ssd, dataclasses.replace(
            NEAR_EOL_PROFILE, free_fraction=0.02,
            fragment_fill_fraction=0.5))
        engine = ssd.background
        assert engine._critical_fraction == 0.025
        assert ssd.ftl.free_block_fraction() == 4 / 128
        t = ssd.write_page(0.0, 0)
        assert ssd.ftl.free_block_fraction() < engine._critical_fraction
        assert engine.foreground_stall_ns > 0.0
        for lpa in range(1, 8):
            t = ssd.write_page(t, lpa)
        assert engine.foreground_stall_ns == float.fromhex(
            "0x1.29557ffffffffp+23")
        assert t == float.fromhex("0x1.df50c3ffffff8p+24")
        assert (engine.gc_steps, engine.gc_relocated_pages,
                engine.gc_erased_blocks) == (6, 25, 6)
        assert_readback_intact(ssd)

    @given(overwrites=st.lists(st.integers(min_value=0, max_value=11),
                               min_size=1, max_size=120))
    @settings(max_examples=25, deadline=None)
    def test_maintenance_never_loses_valid_pages(self, overwrites):
        """Random overwrite streams under aggressive GC: every mapped LPA
        survives, bit-for-bit, no matter how the victim blocks churn."""
        ssd = tiny_ssd(FTLConfig(gc_start_threshold=0.30,
                                 gc_stop_threshold=0.35))
        t = 0.0
        for lpa in range(12):
            t = ssd.write_page(t, lpa)
        for lpa in overwrites:
            t = ssd.write_page(t, lpa)
        assert_readback_intact(ssd)
        assert set(ssd.ftl.mapping) == set(range(12))


# ------------------------------------------------------------------------
# Platform integration and end-to-end bit-equality
# ------------------------------------------------------------------------


def small_platform_config(**kwargs) -> PlatformConfig:
    return PlatformConfig(ssd=small_ssd_config(), **kwargs)


class TestPlatformIntegration:
    def test_platform_builds_engine_and_applies_profile(self):
        platform = SSDPlatform(small_platform_config(
            drive_age=NEAR_EOL_PROFILE))
        assert platform.ssd.background.energy is platform.energy
        stats = platform.maintenance_stats()
        assert stats.drive_age == "near-eol"
        assert stats.free_block_fraction < 0.05
        assert stats.erase_count_max > 0
        assert stats.write_amplification == pytest.approx(
            NEAR_EOL_PROFILE.prior_write_amplification)

    def test_fresh_drive_run_reports_no_maintenance(self):
        """On a factory-fresh drive GC and wear-leveling never trigger."""
        run = execute_run_spec(RunSpec(workload="AES", scale=0.05,
                                       policy="Conduit"))
        stats = run.maintenance
        assert stats.drive_age == "fresh"
        assert (stats.gc_steps, stats.wl_runs) == (0, 0)
        assert stats.background_busy_ns == 0.0
        assert stats.foreground_stall_ns == 0.0
        assert stats.wear_imbalance == 1.0

    def test_aged_platform_run_shifts_results_and_reports_pressure(self):
        spec = RunSpec(workload="AES", scale=0.05, policy="Conduit")
        fresh = execute_run_spec(spec)
        aged = execute_run_spec(dataclasses.replace(
            spec, platform=dataclasses.replace(
                spec.platform, contention_feedback=True,
                drive_age=NEAR_EOL_PROFILE)))
        assert aged.maintenance.gc_relocated_pages > 0
        assert aged.maintenance.gc_erased_blocks > 0
        assert aged.total_time_ns > fresh.total_time_ns


# ------------------------------------------------------------------------
# Aged-drive goldens: the GC engine's timing on full runs
# ------------------------------------------------------------------------

#: (workload, policy) -> (total_time_ns, total_energy_nj, gc_steps,
#: gc_relocated_pages, foreground_stall_ns) on ``default-aged`` at scale
#: 0.1; floats as ``float.hex`` so the pin is bit-exact.
AGED_GOLDEN = {
    ("XOR Filter", "CPU"): (
        "0x1.e084847fffffcp+22", "0x1.1813b3c7ffffep+26", 1, 17, "0x0.0p+0"),
    ("XOR Filter", "Conduit"): (
        "0x1.afe76af201a54p+22", "0x1.c1abc3243170ep+27", 1, 17, "0x0.0p+0"),
    ("LLM Training", "CPU"): (
        "0x1.4c9e324000006p+25", "0x1.c63d836800006p+28", 4, 71, "0x0.0p+0"),
    ("LLM Training", "Conduit"): (
        "0x1.225a7a8d2b9fcp+23", "0x1.3026f18d1a1b8p+28", 1, 17, "0x0.0p+0"),
    ("zipf-aged", "CPU"): (
        "0x1.6d19555555556p+18", "0x1.2970015555555p+25", 1, 17, "0x0.0p+0"),
    ("zipf-aged", "Conduit"): (
        "0x1.d30bb3958a03ep+17", "0x1.24d65d65e7f6dp+23", 1, 17, "0x0.0p+0"),
}


@pytest.fixture(scope="module")
def aged_runner():
    return ExperimentRunner(ExperimentConfig(
        workload_scale=0.1, platform=platform_variant("default-aged")))


def aged_workload(name: str):
    if name != "zipf-aged":
        return workload_by_name(name, scale=0.1)
    params = ZipfParams(requests=400, read_fraction=0.3, request_sectors=64,
                        seed=7)
    return ZipfWorkload(scale=0.1, params=params, name=name)


class TestAgedDriveGoldens:
    @pytest.mark.parametrize("workload, policy", sorted(AGED_GOLDEN))
    def test_aged_run_is_bit_exact(self, aged_runner, workload, policy):
        with warnings.catch_warnings():
            # The zipf stream's footprint floors at the smallest program.
            warnings.simplefilter("ignore", ScaleFloorWarning)
            result = aged_runner.run(aged_workload(workload), policy)
        maintenance = result.maintenance
        time_ns, energy_nj, steps, relocated, stall_ns = AGED_GOLDEN[
            (workload, policy)]
        assert result.total_time_ns == float.fromhex(time_ns)
        assert result.total_energy_nj == float.fromhex(energy_nj)
        assert maintenance.gc_steps == steps
        assert maintenance.gc_relocated_pages == relocated
        assert maintenance.foreground_stall_ns == float.fromhex(stall_ns)
