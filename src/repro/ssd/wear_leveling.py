"""Wear-leveling policy.

Static wear-leveling: when the spread between the most- and least-erased
blocks exceeds a configurable multiple of the mean erase count, the valid
pages of the least-erased (cold) block are migrated so that future writes
wear it instead of the hot blocks.  This is the standard technique MQSim
(and real FTL firmware) uses to extend SSD endurance; the paper relies on
it for both regular I/O mode and computation mode (Section 4.4).  This
module decides when to level and which block to drain; the migration runs
as background traffic
(:class:`~repro.ssd.lifetime.engine.BackgroundFlashEngine`).
"""

from __future__ import annotations

from typing import Optional

from repro.ssd.config import FTLConfig
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.nand import FlashBlock


class WearLeveler:
    """Static wear-leveler driven by the erase-count spread."""

    def __init__(self, ftl: FlashTranslationLayer, config: FTLConfig) -> None:
        self.ftl = ftl
        self.config = config
        # Erase-count statistics only change when a block is erased, so the
        # (full-array) imbalance scan is re-run only after new erases.
        self._erases_at_last_check = -1
        self._cached_imbalance = 1.0

    def imbalance(self) -> float:
        """Ratio of the maximum erase count to the mean (1.0 = balanced)."""
        array = self.ftl.array
        if array.erases == 0:
            return 1.0
        if array.erases != self._erases_at_last_check:
            minimum, mean, maximum = array.erase_count_stats()
            self._cached_imbalance = maximum / mean if mean else 1.0
            self._erases_at_last_check = array.erases
        return self._cached_imbalance

    def needs_leveling(self) -> bool:
        return self.imbalance() > self.config.wear_leveling_threshold

    def coldest_block(self) -> Optional[FlashBlock]:
        """Least-erased block holding valid data (the migration victim).

        Erase-count ties break on the lowest physical block address so the
        pick never depends on block materialization order (determinism
        once wear-leveling runs mid-simulation).
        """
        coldest: Optional[FlashBlock] = None
        coldest_key = None
        for block in self.ftl.array.iter_blocks():
            if block.valid_pages == 0:
                continue
            key = (block.erase_count, block.address)
            if coldest_key is None or key < coldest_key:
                coldest = block
                coldest_key = key
        return coldest
