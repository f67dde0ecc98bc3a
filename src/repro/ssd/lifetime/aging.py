"""Drive-age profiles: deterministic pre-aging of the NAND array.

A fresh simulated SSD is 99%+ free blocks, so the garbage collector's
free-block trigger (:meth:`GarbageCollector.needs_collection`) can never
fire at experiment scale -- the paper's fresh-drive assumption baked into
the model.  A :class:`DriveAgeProfile` replays a drive's write history as
a zero-time setup step instead:

* most of each plane becomes *static cold data* -- fully-valid blocks that
  are accounted arithmetically (never materialized, mirroring the lazy
  NAND array) and squeeze the free-block fraction down to the profile's
  ``free_fraction``;
* a seeded number of blocks per plane are *fragmented*: partially
  programmed with filler logical pages, a seeded fraction of which are
  invalid -- these are the GC victims that generate real relocation
  traffic on the shared channels once the background engine runs.  Each
  fragment is installed in bulk -- one :meth:`NANDArray.program_fragment`
  call per block, not a page-by-page program/invalidate replay;
* per-block erase counts are pre-seeded from the profile's RNG, so wear
  statistics (and the wear-leveler's imbalance trigger) start from a
  worn, not pristine, distribution.

Everything is drawn from one ``random.Random(profile.seed)`` stream
walked in fixed geometry order, so a profile applied twice to the same
configuration produces bit-identical array state.  The walk therefore runs
once per ``(profile, geometry)``: :func:`drive_age_image` records its
result as a read-only, memoized :class:`DriveAgeImage`, and
:func:`apply_drive_age` installs that image into each new drive.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, NamedTuple, Tuple

from repro.common import ConfigurationError
from repro.ssd.config import NANDConfig
from repro.ssd.nand import PhysicalBlockAddress, PhysicalPageAddress

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ssd.ssd import SSD


@dataclass(frozen=True)
class DriveAgeProfile:
    """How worn the drive is when the simulation starts.

    The profile is pure configuration data (frozen, hashable, folded into
    the sweep cache key); :func:`apply_drive_age` turns it into array
    state.
    """

    name: str = "fresh"
    #: Free-block fraction the pre-aged drive starts at.  Below the FTL's
    #: ``gc_start_threshold`` (0.05 by default) the garbage collector is
    #: under pressure from the first foreground write.
    free_fraction: float = 0.99
    #: Fragmented blocks per plane: the pre-seeded GC victim population.
    fragmented_blocks_per_plane: int = 0
    #: Fraction of each fragmented block's pages that are programmed.
    fragment_fill_fraction: float = 0.25
    #: Probability a programmed fragment page is invalid (reclaimable).
    fragment_invalid_fraction: float = 0.5
    #: Erase count of the (unmaterialized) static cold blocks.
    cold_erase_count: int = 0
    #: Per-fragment-block erase counts are drawn uniformly from this range.
    fragment_erase_count_min: int = 0
    fragment_erase_count_max: int = 0
    #: Write amplification the drive's (unsimulated) history had already
    #: reached; reported as the floor of the measured WA metric.
    prior_write_amplification: float = 1.0
    #: Seed of the profile's private RNG stream.
    seed: int = 20260807

    def __post_init__(self) -> None:
        if not 0.0 < self.free_fraction <= 1.0:
            raise ConfigurationError(
                "DriveAgeProfile.free_fraction must be in (0, 1]")
        if self.fragmented_blocks_per_plane < 0:
            raise ConfigurationError(
                "DriveAgeProfile.fragmented_blocks_per_plane must be >= 0")
        if not 0.0 < self.fragment_fill_fraction <= 1.0:
            raise ConfigurationError(
                "DriveAgeProfile.fragment_fill_fraction must be in (0, 1]")
        if not 0.0 <= self.fragment_invalid_fraction <= 1.0:
            raise ConfigurationError(
                "DriveAgeProfile.fragment_invalid_fraction must be in "
                "[0, 1]")
        if self.cold_erase_count < 0 or self.fragment_erase_count_min < 0:
            raise ConfigurationError(
                "DriveAgeProfile erase counts must be >= 0")
        if self.fragment_erase_count_max < self.fragment_erase_count_min:
            raise ConfigurationError(
                "DriveAgeProfile.fragment_erase_count_max must be >= "
                "fragment_erase_count_min")
        if self.prior_write_amplification < 1.0:
            raise ConfigurationError(
                "DriveAgeProfile.prior_write_amplification must be >= 1.0")


#: A drive half-way through its life: free space still above the GC start
#: threshold most of the time, mild fragmentation, moderate wear.
MID_LIFE_PROFILE = DriveAgeProfile(
    name="mid-life",
    free_fraction=0.048,
    fragmented_blocks_per_plane=2,
    fragment_fill_fraction=0.25,
    fragment_invalid_fraction=0.7,
    cold_erase_count=1200,
    fragment_erase_count_min=900,
    fragment_erase_count_max=1600,
    prior_write_amplification=1.6,
)

#: A drive near end-of-life: free space below the GC start threshold (the
#: collector is busy from the first write), a larger victim population
#: with *more valid data per victim* (each reclaimed block costs more
#: relocation traffic), and a wide erase-count spread that trips the
#: static wear-leveler.
NEAR_EOL_PROFILE = DriveAgeProfile(
    name="near-eol",
    free_fraction=0.042,
    fragmented_blocks_per_plane=4,
    fragment_fill_fraction=0.25,
    fragment_invalid_fraction=0.45,
    cold_erase_count=2700,
    fragment_erase_count_min=2200,
    fragment_erase_count_max=4400,
    prior_write_amplification=2.8,
)

#: Named profiles, for CLI/docs discovery.
DRIVE_AGE_PROFILES: Dict[str, DriveAgeProfile] = {
    "mid-life": MID_LIFE_PROFILE,
    "near-eol": NEAR_EOL_PROFILE,
}


class AgedFragment(NamedTuple):
    """One fragmented block of a :class:`DriveAgeImage`."""

    address: PhysicalBlockAddress
    #: ``{page: lpa}`` of the block's valid filler pages.
    stored: Dict[int, int]
    #: Filler pages left invalid (reclaimable).
    invalid: FrozenSet[int]
    erase_count: int


class DriveAgeImage(NamedTuple):
    """The array state a profile replays onto one NAND geometry.

    Built once per ``(DriveAgeProfile, NANDConfig)`` by
    :func:`drive_age_image` and shared by every drive of that shape; the
    installer copies what a drive may mutate, so nothing in an image is
    ever written after it is built.
    """

    #: ``(channel, die, plane, cold_blocks)`` per plane, geometry order.
    cold_blocks: Tuple[Tuple[int, int, int, int], ...]
    cold_erase_count: int
    #: Pages programmed into each fragment (``[0, fill_pages)``).
    fill_pages: int
    fragments: Tuple[AgedFragment, ...]
    #: Filler LPA -> page of every valid filler page, in insertion order.
    mapping: Dict[int, PhysicalPageAddress]


@functools.lru_cache(maxsize=4)
def drive_age_image(profile: DriveAgeProfile,
                    nand: NANDConfig) -> DriveAgeImage:
    """The drive-age image of ``profile`` on geometry ``nand`` (memoized).

    One ``random.Random(profile.seed)`` walk in geometry order: per
    fragment block, one ``random()`` per filler page (is it invalid?),
    then one ``randint`` for its erase count.  Filler logical pages live
    above the drive's logical capacity so they can never collide with
    workload LPAs.  The cache is bounded: a process sweeps a handful of
    (profile, geometry) pairs, each image a few MB at the default
    geometry.
    """
    rng = random.Random(profile.seed)
    draw = rng.random
    filler_lpa = nand.pages  # first LPA past the logical capacity
    fill_pages = max(1, int(profile.fragment_fill_fraction *
                            nand.pages_per_block))
    invalid_fraction = profile.fragment_invalid_fraction
    blocks = nand.blocks_per_plane
    fragmented = min(profile.fragmented_blocks_per_plane, max(0, blocks - 2))
    free_target = max(2, round(profile.free_fraction * blocks))
    cold = max(0, blocks - fragmented - free_target)
    cold_blocks = []
    fragments = []
    mapping: Dict[int, PhysicalPageAddress] = {}
    for channel in range(nand.channels):
        for die in range(nand.dies_per_channel):
            for plane in range(nand.planes_per_die):
                cold_blocks.append((channel, die, plane, cold))
                for index in range(cold, cold + fragmented):
                    invalid = frozenset(page for page in range(fill_pages)
                                        if draw() < invalid_fraction)
                    stored = {}
                    for page in range(fill_pages):
                        if page not in invalid:
                            stored[page] = filler_lpa + page
                            mapping[filler_lpa + page] = PhysicalPageAddress(
                                channel, die, plane, index, page)
                    filler_lpa += fill_pages
                    fragments.append(AgedFragment(
                        PhysicalBlockAddress(channel, die, plane, index),
                        stored, invalid,
                        rng.randint(profile.fragment_erase_count_min,
                                    profile.fragment_erase_count_max)))
    return DriveAgeImage(tuple(cold_blocks), profile.cold_erase_count,
                         fill_pages, tuple(fragments), mapping)


def apply_drive_age(ssd: "SSD", profile: DriveAgeProfile) -> None:
    """Pre-age an SSD's array in place (zero simulated time).

    Must run before dataset placement.  Installs the profile's memoized
    :func:`drive_age_image`: cold blocks per plane, one checked
    :meth:`NANDArray.program_fragment` per fragment, and the valid filler
    pages in the FTL mapping (GC and wear-leveling relocate them through
    the ordinary :meth:`FlashTranslationLayer.relocate` path).  Every
    block's page map and invalid set is copied into the drive, so drives
    built from one image share no mutable state.  Operation counters are
    reset afterwards: the pre-aged state is history, not simulated work,
    so energy and wear-rate accounting start clean.
    """
    array = ssd.array
    image = drive_age_image(profile, array.config)
    cold_erase_count = image.cold_erase_count
    for channel, die, plane, cold in image.cold_blocks:
        array.mark_cold_blocks(channel, die, plane, cold, cold_erase_count)
    fill_pages = image.fill_pages
    program_fragment = array.program_fragment
    for address, stored, invalid, erase_count in image.fragments:
        program_fragment(address, fill_pages, stored,
                         invalid).erase_count = erase_count
    ssd.ftl.mapping.update(image.mapping)
    # Pre-aging is replayed history, not simulated work: the operation
    # counters feed wear-rate/energy views of *this run*, so they restart
    # at zero (erase *counts* on the blocks themselves keep the history).
    array.reads = 0
    array.programs = 0
    array.erases = 0
