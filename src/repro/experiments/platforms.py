"""Named platform variants: the sweeps' third axis.

The paper evaluates one platform shape, but the reproduction's backend
registry (PR 3) grows the platform's compute roster purely through
:class:`~repro.core.platform.PlatformConfig` knobs.  This module names
those shapes so experiment sweeps can cross them with (workload, policy)
pairs the same way gem5 configs name system shapes:

* ``default`` -- the paper's trio (pooled ISP, PuD-SSD, IFP);
* ``multicore-isp`` -- the ISP pool split into per-core backends
  ``isp[0..4)``, each with its own execution queue;
* ``cxl-pud`` -- the opt-in CXL-attached PuD tier enabled;
* ``default-feedback`` / ``multicore-isp-feedback`` /
  ``cxl-pud-feedback`` -- the same three shapes with the
  contention-aware cost model (``contention_feedback=True``) switched on,
  so feedback on/off is itself a sweepable platform axis (the
  ``contention`` experiment crosses all six).

A variant is a *factory* from a base configuration to a grown one, so the
same variant applies to the full-size experiment platform and to the tiny
platforms the tests use.  User code registers additional variants with
:func:`register_platform_variant`; every registered name is immediately
accepted by ``ExperimentRunner.sweep(platforms=...)``, every experiment
definition and the ``python -m repro run ... --platform NAME`` CLI.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Tuple

from repro.common import MIB
from repro.core.platform import PlatformConfig
from repro.dram.cxl import CXLPuDConfig
from repro.ssd.config import GCVictimPolicy
from repro.ssd.lifetime import (DriveAgeProfile, MID_LIFE_PROFILE,
                                NEAR_EOL_PROFILE)

#: A variant maps a base platform configuration to the variant's shape.
PlatformFactory = Callable[[PlatformConfig], PlatformConfig]

#: Per-core ISP backends registered by the ``multicore-isp`` variant.
MULTICORE_ISP_CORES = 4

#: Registry of named platform variants (registration order is preserved
#: and is the order ``python -m repro list`` shows them in).
PLATFORM_VARIANTS: Dict[str, PlatformFactory] = {}


def experiment_platform_config() -> PlatformConfig:
    """The base platform configuration used by the experiment harnesses.

    Capacity windows are scaled down together with the workload footprints
    so the paper's regime (dataset >> SSD DRAM, dataset >> host cache)
    holds while a full sweep stays fast.  This is the single source of
    truth: the figure harnesses, the golden tests and
    ``benchmarks/conftest.py`` all build their ``ExperimentConfig`` from
    this factory (via the ``platform`` field default), so they cannot
    drift apart.  Platform variants grow *from* this base (or from any
    explicitly supplied one).
    """
    return PlatformConfig(
        dram_compute_window_bytes=2 * MIB,
        sram_window_bytes=512 * 1024,
        host_cache_bytes=2 * MIB,
    )


def register_platform_variant(name: str, factory: PlatformFactory, *,
                              overwrite: bool = False) -> PlatformFactory:
    """Register a named platform variant for use as a sweep axis value.

    Returns the factory so the call can be used as a decorator helper.
    Re-registering an existing name requires ``overwrite=True`` so typos
    cannot silently shadow a built-in shape.
    """
    if not overwrite and name in PLATFORM_VARIANTS:
        raise ValueError(
            f"platform variant {name!r} is already registered; pass "
            "overwrite=True to replace it")
    PLATFORM_VARIANTS[name] = factory
    return factory


def available_platform_variants() -> Tuple[str, ...]:
    """Registered variant names, in registration order."""
    return tuple(PLATFORM_VARIANTS)


def platform_variant(name: str,
                     base: Optional[PlatformConfig] = None) -> PlatformConfig:
    """Resolve a variant name into a concrete :class:`PlatformConfig`.

    ``base`` defaults to :func:`experiment_platform_config`; tests and
    examples pass their own (e.g. a tiny-SSD configuration) and still get
    the variant's roster growth applied on top.
    """
    try:
        factory = PLATFORM_VARIANTS[name]
    except KeyError:
        known = ", ".join(PLATFORM_VARIANTS)
        raise ValueError(
            f"unknown platform variant {name!r}; known variants: {known}"
        ) from None
    return factory(base if base is not None else experiment_platform_config())


def _default_variant(base: PlatformConfig) -> PlatformConfig:
    return base


def _multicore_isp_variant(base: PlatformConfig) -> PlatformConfig:
    return dataclasses.replace(base, isp_cores=MULTICORE_ISP_CORES)


def _cxl_pud_variant(base: PlatformConfig) -> PlatformConfig:
    return dataclasses.replace(base, cxl_pud=CXLPuDConfig())


def _wave_decisions_variant(base: PlatformConfig) -> PlatformConfig:
    """The default platform driven by the opt-in wave-batched offload
    engine (``batched_offload=True``) -- bit-identical results by
    contract, kept as a CI smoke axis so the wave engine stays exercised
    until it is deleted."""
    return dataclasses.replace(base, batched_offload=True)


def with_contention_feedback(config: PlatformConfig) -> PlatformConfig:
    """The same platform shape with the contention-aware cost model on."""
    return dataclasses.replace(config, contention_feedback=True)


def with_drive_age(config: PlatformConfig,
                   profile: DriveAgeProfile) -> PlatformConfig:
    """The same platform shape on an aged drive (background GC/WL act)."""
    return dataclasses.replace(config, drive_age=profile)


def with_adaptive_ftl(config: PlatformConfig) -> PlatformConfig:
    """The same shape with the adaptive-FTL ablation knobs switched on
    (cost-benefit GC victim selection + hot/cold write separation)."""
    return dataclasses.replace(
        config,
        ssd=dataclasses.replace(
            config.ssd,
            ftl=dataclasses.replace(
                config.ssd.ftl,
                gc_victim_policy=GCVictimPolicy.COST_BENEFIT,
                hot_cold_separation=True)))


def _feedback_variant(inner: PlatformFactory) -> PlatformFactory:
    """Compose a variant factory with ``contention_feedback=True``."""
    def factory(base: PlatformConfig) -> PlatformConfig:
        return with_contention_feedback(inner(base))
    return factory


register_platform_variant("default", _default_variant)
register_platform_variant("multicore-isp", _multicore_isp_variant)
register_platform_variant("cxl-pud", _cxl_pud_variant)
register_platform_variant("wave-decisions", _wave_decisions_variant)
register_platform_variant("default-feedback",
                          _feedback_variant(_default_variant))
register_platform_variant("multicore-isp-feedback",
                          _feedback_variant(_multicore_isp_variant))
register_platform_variant("cxl-pud-feedback",
                          _feedback_variant(_cxl_pud_variant))


def _midlife_variant(base: PlatformConfig) -> PlatformConfig:
    """Mid-life drive under background GC/WL, contention feedback on so the
    cost model sees (and the monitor records) the maintenance traffic."""
    return with_drive_age(with_contention_feedback(base), MID_LIFE_PROFILE)


def _aged_variant(base: PlatformConfig) -> PlatformConfig:
    """Near-end-of-life drive under persistent GC pressure."""
    return with_drive_age(with_contention_feedback(base), NEAR_EOL_PROFILE)


def _aged_adaptive_variant(base: PlatformConfig) -> PlatformConfig:
    """Near-EOL drive with the adaptive-FTL knobs on (the ablation twin
    of ``default-aged``: same wear state, smarter victim selection)."""
    return with_adaptive_ftl(_aged_variant(base))


register_platform_variant("default-midlife", _midlife_variant)
register_platform_variant("default-aged", _aged_variant)
register_platform_variant("default-aged-adaptive", _aged_adaptive_variant)
