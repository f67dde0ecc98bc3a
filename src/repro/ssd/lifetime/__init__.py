"""Device-lifetime subsystem: background flash activity and drive aging.

On a factory-fresh drive GC and wear-leveling never trigger, so a
simulation that only ever starts fresh never sees them.  This package
makes device lifetime a first-class simulation axis:

* :class:`~repro.ssd.lifetime.aging.DriveAgeProfile` pre-ages the NAND
  array deterministically (static cold data, fragmented blocks with
  seeded invalid-page distributions, per-block erase counts) so a run
  starts mid-life or near end-of-life instead of factory fresh; the
  profile's seeded walk runs once per geometry into a memoized
  :class:`~repro.ssd.lifetime.aging.DriveAgeImage` that every drive of
  that shape installs;
* :class:`~repro.ssd.lifetime.engine.BackgroundFlashEngine`, owned by
  every :class:`~repro.ssd.ssd.SSD`, drives GC and wear-leveling *during*
  the simulation, charging relocation reads, programs and erases on the
  shared flash channels and dies -- foreground movements genuinely queue
  behind background traffic, which the contention monitor
  (:mod:`repro.core.contention`) then observes as movement overrun with
  zero new coupling.  Its per-step relocation and wear-leveling budgets
  are the module constants ``GC_PAGES_PER_STEP`` and
  ``WL_BLOCKS_PER_RUN`` in :mod:`repro.ssd.lifetime.engine`.

``PlatformConfig.drive_age`` selects the profile; with the default
(``None``) the drive is factory fresh and the engine only idles.
"""

from repro.ssd.lifetime.aging import (DRIVE_AGE_PROFILES, MID_LIFE_PROFILE,
                                      NEAR_EOL_PROFILE, DriveAgeProfile,
                                      apply_drive_age, drive_age_image)
from repro.ssd.lifetime.engine import BackgroundFlashEngine, MaintenanceStats

__all__ = [
    "DRIVE_AGE_PROFILES", "MID_LIFE_PROFILE", "NEAR_EOL_PROFILE",
    "DriveAgeProfile", "apply_drive_age", "drive_age_image",
    "BackgroundFlashEngine", "MaintenanceStats",
]
