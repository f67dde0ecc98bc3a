"""Garbage-collection policy.

Decides *when* to collect (the free-block fraction dropped below the
configured start threshold) and *which* block to reclaim (greedy
most-invalid-pages-first, or the cost-benefit score).  The relocations and
erases themselves run as background traffic on the shared flash channels
(:class:`~repro.ssd.lifetime.engine.BackgroundFlashEngine`), so GC
interferes with foreground work the way it does in the paper's simulator.
"""

from __future__ import annotations

from typing import Optional

from repro.ssd.config import FTLConfig, GCVictimPolicy
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.nand import FlashBlock


class GarbageCollector:
    """Greedy (most-invalid-pages-first) garbage collector."""

    def __init__(self, ftl: FlashTranslationLayer, config: FTLConfig) -> None:
        self.ftl = ftl
        self.config = config

    # -- Victim selection ---------------------------------------------------

    def needs_collection(self) -> bool:
        return self.ftl.free_block_fraction() < self.config.gc_start_threshold

    def select_victim(self) -> Optional[FlashBlock]:
        """Pick the victim block under the configured policy.

        Score ties break on the lowest physical block address: victim
        choice must not depend on block materialization order, or a run
        that exercises GC stops being reproducible across equivalent
        histories.
        """
        if self.config.gc_victim_policy is GCVictimPolicy.COST_BENEFIT:
            return self._select_cost_benefit()
        best: Optional[FlashBlock] = None
        best_key = None
        for block in self.ftl.array.iter_blocks():
            invalid = block.invalid_pages
            if invalid == 0:
                continue
            key = (-invalid, block.address)
            if best_key is None or key < best_key:
                best = block
                best_key = key
        return best

    def _select_cost_benefit(self) -> Optional[FlashBlock]:
        """Cost-benefit victim score (adaptive-FTL policy axis).

        ``(invalid / (valid + 1))`` is the reclaim-per-relocation benefit;
        the wear term ``1 / (1 + erase_count / (1 + mean))`` discounts
        already-worn blocks so victim churn doubles as wear-leveling.
        """
        _, mean_erase, _ = self.ftl.array.erase_count_stats()
        best: Optional[FlashBlock] = None
        best_key = None
        for block in self.ftl.array.iter_blocks():
            invalid = block.invalid_pages
            if invalid == 0:
                continue
            score = (invalid / (block.valid_pages + 1.0) /
                     (1.0 + block.erase_count / (1.0 + mean_erase)))
            key = (-score, block.address)
            if best_key is None or key < best_key:
                best = block
                best_key = key
        return best
