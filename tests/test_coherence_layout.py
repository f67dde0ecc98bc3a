"""Tests for the lazy coherence directory and the array-to-page layout."""

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common import DataLocation, SimulationError
from repro.core.coherence import (STRICT_WRITE_THROUGH, CoherenceDirectory,
                                  CoherencePolicy)
from repro.core.compiler.ir import ArrayRef, ArraySpec
from repro.core.layout import ArrayLayout


class PageCoherenceState(enum.Enum):
    CLEAN = "clean"
    DIRTY = "dirty"


DIRTY = PageCoherenceState.DIRTY
CLEAN = PageCoherenceState.CLEAN
FLASH = DataLocation.FLASH

#: (lpa, from_location, reason) of one commit, in issue order.
Commit = Tuple[int, DataLocation, str]


@dataclass
class _Page:
    owner: DataLocation = FLASH
    state: PageCoherenceState = CLEAN
    version: int = 0


class ReferenceDirectory:
    """Page-at-a-time statement of the coherence protocol (Section 4.4).

    The directory under test serves whole LPA runs and stores only dirty
    pages; this model keeps all three fields of every page it touches and
    visits every page of a run in ascending order with the protocol
    written out plainly, so the two must agree on every commit, every
    dirty page and every counter.
    """

    def __init__(self, policy: CoherencePolicy) -> None:
        self.policy = policy
        self.pages: Dict[int, _Page] = {}
        self.flushes = 0
        self.version_wraps = 0

    def _page(self, lpa: int) -> _Page:
        return self.pages.setdefault(lpa, _Page())

    def _commit(self, page: _Page) -> None:
        page.owner, page.state, page.version = FLASH, CLEAN, 0
        self.flushes += 1

    def read(self, base: int, count: int,
             reader: DataLocation) -> List[Commit]:
        commits = []
        for lpa in range(base, base + count):
            page = self._page(lpa)
            if page.state is DIRTY and page.owner is not reader:
                commits.append((lpa, page.owner,
                                "remote read of dirty page"))
                self._commit(page)
        return commits

    def write(self, base: int, count: int,
              writer: DataLocation) -> List[Commit]:
        commits = []
        for lpa in range(base, base + count):
            page = self._page(lpa)
            if page.state is DIRTY and page.owner is not writer:
                commits.append((lpa, page.owner,
                                "remote write of dirty page"))
                self._commit(page)
            page.owner, page.state = writer, DIRTY
            page.version += 1
            if page.version >= 256:
                commits.append((lpa, writer, "version counter wrap"))
                self._commit(page)
                self.version_wraps += 1
            if self.policy is CoherencePolicy.STRICT:
                commits.append((lpa, writer, STRICT_WRITE_THROUGH))
                self._commit(page)
        return commits

    def evict(self, lpa: int) -> List[Commit]:
        page = self._page(lpa)
        if page.state is DIRTY:
            commit = (lpa, page.owner, "eviction from temporary location")
            self._commit(page)
            return [commit]
        page.owner = FLASH
        return []


def _commits(actions) -> List[Commit]:
    return [(a.lpa, a.from_location, a.reason) for a in actions]


def assert_versions_in_range(directory: CoherenceDirectory) -> None:
    """Every stored (dirty) page has a version in [1, 255]."""
    for lpa, (owner, version) in directory._dirty.items():
        assert 1 <= version < 256, (lpa, owner, version)


_LOCATIONS = st.sampled_from(list(DataLocation))
_RUN = st.tuples(st.integers(min_value=0, max_value=11),
                 st.integers(min_value=1, max_value=6))
_OPERATION = st.one_of(
    st.tuples(st.just("read"), _RUN, _LOCATIONS),
    st.tuples(st.just("write"), _RUN, _LOCATIONS),
    st.tuples(st.just("evict"), st.integers(min_value=0, max_value=16)),
    # A burst of same-writer rewrites long enough to wrap the counter.
    st.tuples(st.just("burst"), _RUN, _LOCATIONS,
              st.integers(min_value=256, max_value=300)),
)


class TestCoherence:
    def test_pages_start_clean_in_flash(self):
        directory = CoherenceDirectory()
        assert directory._dirty.get(0) is None
        assert directory.on_read_run(0, 4, DataLocation.HOST) == []
        assert directory._dirty == {}

    def test_write_marks_dirty_and_bumps_version(self):
        directory = CoherenceDirectory()
        directory.on_write_run(1, 1, DataLocation.SSD_DRAM)
        assert directory._dirty.get(1) == (DataLocation.SSD_DRAM, 1)

    def test_same_owner_rewrites_only_bump_version(self):
        directory = CoherenceDirectory()
        directory.on_write_run(1, 1, DataLocation.SSD_DRAM)
        actions = directory.on_write_run(1, 1, DataLocation.SSD_DRAM)
        assert actions == []
        assert directory._dirty.get(1) == (DataLocation.SSD_DRAM, 2)

    def test_remote_read_of_dirty_page_commits_to_flash(self):
        directory = CoherenceDirectory()
        directory.on_write_run(1, 1, DataLocation.SSD_DRAM)
        actions = directory.on_read_run(1, 1, DataLocation.FLASH)
        assert len(actions) == 1
        assert actions[0].from_location is DataLocation.SSD_DRAM
        assert directory._dirty.get(1) is None

    def test_local_read_needs_no_sync(self):
        directory = CoherenceDirectory()
        directory.on_write_run(1, 1, DataLocation.SSD_DRAM)
        assert directory.on_read_run(1, 1, DataLocation.SSD_DRAM) == []

    def test_remote_write_of_dirty_page_commits_first(self):
        directory = CoherenceDirectory()
        directory.on_write_run(1, 1, DataLocation.SSD_DRAM)
        actions = directory.on_write_run(1, 1, DataLocation.FLASH)
        assert len(actions) == 1
        assert directory._dirty.get(1) == (DataLocation.FLASH, 1)

    def test_eviction_flushes_dirty_pages(self):
        directory = CoherenceDirectory()
        directory.on_write_run(2, 1, DataLocation.SSD_DRAM)
        actions = directory.on_evict(2)
        assert len(actions) == 1
        assert directory._dirty.get(2) is None

    def test_eviction_of_clean_page_is_free(self):
        directory = CoherenceDirectory()
        directory.on_read_run(2, 1, DataLocation.SSD_DRAM)
        assert directory.on_evict(2) == []

    def test_version_wrap_forces_flush(self):
        directory = CoherenceDirectory()
        for _ in range(256):
            directory.on_write_run(3, 1, DataLocation.SSD_DRAM)
        assert directory.version_wraps >= 1
        assert directory._dirty.get(3) is None

    def test_strict_policy_writes_through(self):
        directory = CoherenceDirectory(CoherencePolicy.STRICT)
        actions = directory.on_write_run(1, 1, DataLocation.SSD_DRAM)
        assert any(a.reason.startswith("strict") for a in actions)
        assert directory._dirty.get(1) is None

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([DataLocation.FLASH, DataLocation.SSD_DRAM,
                         DataLocation.HOST]),
        st.booleans()), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_single_owner_invariant(self, operations):
        """Every stored page is dirty at one owner, version 1..255."""
        directory = CoherenceDirectory()
        for base, count, location, is_write in operations:
            if is_write:
                directory.on_write_run(base, count, location)
            else:
                directory.on_read_run(base, count, location)
            assert_versions_in_range(directory)

    @pytest.mark.parametrize("policy", list(CoherencePolicy))
    @given(operations=st.lists(_OPERATION, min_size=1, max_size=40))
    @example(operations=[("burst", (0, 2), FLASH, 300),
                         ("read", (0, 3), DataLocation.HOST)])
    @settings(max_examples=60, deadline=None)
    def test_run_hooks_match_the_page_reference(self, policy, operations):
        """Random run-granular sequences agree with the per-page model."""
        directory = CoherenceDirectory(policy)
        reference = ReferenceDirectory(policy)
        for operation in operations:
            kind = operation[0]
            if kind == "evict":
                lpa = operation[1]
                got = _commits(directory.on_evict(lpa))
                expected = reference.evict(lpa)
            elif kind == "read":
                (base, count), location = operation[1:]
                got = _commits(directory.on_read_run(base, count, location))
                expected = reference.read(base, count, location)
            else:
                (base, count), location = operation[1], operation[2]
                repeats = operation[3] if kind == "burst" else 1
                got, expected = [], []
                for _ in range(repeats):
                    got += _commits(directory.on_write_run(base, count,
                                                           location))
                    expected += reference.write(base, count, location)
            assert got == expected, operation
            assert directory._dirty == {
                lpa: (p.owner, p.version)
                for lpa, p in reference.pages.items() if p.state is DIRTY}
            # A clean page is always (FLASH, 0), which is what lets the
            # directory leave clean pages out of its map.
            assert all((p.owner, p.version) == (FLASH, 0)
                       for p in reference.pages.values()
                       if p.state is CLEAN)
            assert directory.flushes == reference.flushes
            assert directory.version_wraps == reference.version_wraps
            assert_versions_in_range(directory)


class TestArrayLayout:
    def test_placement_is_contiguous_and_non_overlapping(self):
        layout = ArrayLayout(page_size_bytes=16 * 1024)
        a = layout.place(ArraySpec("a", 65536, 32))
        b = layout.place(ArraySpec("b", 65536, 32))
        assert a.base_lpa == 0
        assert b.base_lpa == a.end_lpa
        assert layout.total_pages == a.pages + b.pages

    def test_placing_twice_is_idempotent(self):
        layout = ArrayLayout(16 * 1024)
        first = layout.place(ArraySpec("a", 1024, 32))
        second = layout.place(ArraySpec("a", 1024, 32))
        assert first == second

    def test_pages_of_covers_the_region(self):
        layout = ArrayLayout(16 * 1024)
        layout.place(ArraySpec("a", 65536, 32))
        pages = layout.pages_of(ArrayRef("a", 0, 8192), element_bits=32)
        assert pages == [0, 1]
        pages = layout.pages_of(ArrayRef("a", 4096, 4096), element_bits=32)
        assert pages == [1]

    def test_pages_of_unknown_array_raises(self):
        with pytest.raises(SimulationError):
            ArrayLayout(4096).pages_of(ArrayRef("missing", 0, 10), 32)

    def test_colocation_groups_are_block_sized(self):
        layout = ArrayLayout(16 * 1024)
        layout.place(ArraySpec("a", 65536 * 8, 32))
        groups = layout.colocation_groups(pages_per_block=4)
        assert all(len(group) <= 4 for group in groups)
        flattened = [lpa for group in groups for lpa in group]
        assert len(flattened) == len(set(flattened))

    def test_colocation_groups_skip_single_page_arrays(self):
        layout = ArrayLayout(16 * 1024)
        layout.place(ArraySpec("tiny", 16, 32))  # one page
        assert layout.colocation_groups(pages_per_block=4) == []

    def test_colocation_groups_partial_trailing_block(self):
        layout = ArrayLayout(16 * 1024)
        # 6 pages with 4 pages per block: one full group + a 2-page tail.
        layout.place(ArraySpec("a", 4096 * 6, 32))
        groups = layout.colocation_groups(pages_per_block=4)
        assert [len(group) for group in groups] == [4, 2]
        assert groups[0] == [0, 1, 2, 3]
        assert groups[1] == [4, 5]

    def test_colocation_groups_trailing_single_page_is_dropped(self):
        layout = ArrayLayout(16 * 1024)
        # 5 pages with 4 per block: the 1-page tail has no colocation
        # constraint and must not appear as a group.
        layout.place(ArraySpec("a", 4096 * 5, 32))
        groups = layout.colocation_groups(pages_per_block=4)
        assert [len(group) for group in groups] == [4]

    def test_colocation_groups_match_all_lpas_coverage(self):
        layout = ArrayLayout(16 * 1024)
        layout.place(ArraySpec("a", 4096 * 7, 32))
        layout.place(ArraySpec("b", 4096 * 3, 32))
        groups = layout.colocation_groups(pages_per_block=4)
        grouped = {lpa for group in groups for lpa in group}
        # Grouped pages are a subset of the layout, never crossing arrays.
        assert grouped <= set(layout.all_lpas())
        a, b = layout.placement("a"), layout.placement("b")
        for group in groups:
            in_a = all(a.base_lpa <= lpa < a.end_lpa for lpa in group)
            in_b = all(b.base_lpa <= lpa < b.end_lpa for lpa in group)
            assert in_a or in_b

    def test_page_run_of_matches_pages_of(self):
        layout = ArrayLayout(16 * 1024)
        layout.place(ArraySpec("a", 65536, 32))
        ref = ArrayRef("a", 4096, 12288)
        base, count = layout.page_run_of(ref, 32)
        assert list(range(base, base + count)) == layout.pages_of(ref, 32)

    def test_page_run_of_is_memoized(self):
        layout = ArrayLayout(16 * 1024)
        layout.place(ArraySpec("a", 65536, 32))
        ref = ArrayRef("a", 0, 8192)
        assert layout.page_run_of(ref, 32) is layout.page_run_of(ref, 32)
        # pages_of shares the memoized resolution but hands out a fresh
        # list, so callers may mutate their copy safely.
        pages = layout.pages_of(ref, 32)
        pages.append(-1)
        assert layout.pages_of(ref, 32) == [0, 1]

    def test_page_run_of_single_page_array(self):
        layout = ArrayLayout(16 * 1024)
        layout.place(ArraySpec("tiny", 16, 32))
        base, count = layout.page_run_of(ArrayRef("tiny", 0, 16), 32)
        assert (base, count) == (0, 1)

    @given(st.integers(min_value=1, max_value=200000),
           st.integers(min_value=0, max_value=100000),
           st.integers(min_value=1, max_value=5000))
    @settings(max_examples=50, deadline=None)
    def test_pages_of_always_within_placement(self, elements, offset, length):
        layout = ArrayLayout(16 * 1024)
        placement = layout.place(ArraySpec("a", elements, 32))
        offset = min(offset, elements - 1)
        length = min(length, elements - offset)
        if length <= 0:
            return
        pages = layout.pages_of(ArrayRef("a", offset, length), 32)
        assert pages
        assert min(pages) >= placement.base_lpa
        assert max(pages) < placement.end_lpa
