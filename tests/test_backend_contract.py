"""Backend contract suite: invariants every registered backend must hold.

Parametrized over several platform shapes (the default roster, a per-core
ISP roster, a CXL-PuD-grown roster) and, within each, over every backend
the registry holds -- so a future backend added to the platform's
configuration is covered automatically, without edits here.

Invariants (the properties the offload stack relies on):

* ``operation_latency`` is positive and monotone in ``size_bytes`` for
  every supported operation;
* ``operation_energy`` is non-negative;
* ``supports(op)`` is consistent with the estimates and ``execute``
  (supported operations report positive latency and execute; unsupported
  ones raise);
* ``utilization`` stays within [0, 1] before and after activity;
* identity plumbing: the home location is a real location, the queue
  carries the backend's identity, and the registry's roster matches the
  config-derived :func:`backend_roster` prediction.
"""

from __future__ import annotations

import pytest

from repro.common import (DataLocation, KIB, MIB, OpType, Resource,
                          RESOURCE_HOME_LOCATION, SSD_RESOURCES,
                          SimulationError)
from repro.core.platform import PlatformConfig, SSDPlatform, backend_roster
from repro.dram.cxl import CXLPuDConfig
from repro.ssd.config import small_ssd_config

#: Operation sample spanning every family (bitwise, arithmetic,
#: predication, memory, control) including ops some backends reject.
SAMPLE_OPS = (OpType.AND, OpType.XOR, OpType.ADD, OpType.MUL, OpType.DIV,
              OpType.CMP_LT, OpType.SELECT, OpType.COPY, OpType.GATHER,
              OpType.SCALAR)

ELEMENT_BITS = 32


def _shape_configs():
    base = dict(ssd=small_ssd_config(),
                dram_compute_window_bytes=1 * MIB,
                host_cache_bytes=1 * MIB)
    return {
        "default": PlatformConfig(**base),
        "multicore-isp": PlatformConfig(**base, isp_cores=3),
        "cxl-pud": PlatformConfig(**base, cxl_pud=CXLPuDConfig()),
        "grown-both": PlatformConfig(**base, isp_cores=2,
                                     cxl_pud=CXLPuDConfig()),
    }


@pytest.fixture(params=sorted(_shape_configs()))
def shaped_platform(request) -> SSDPlatform:
    return SSDPlatform(_shape_configs()[request.param])


class TestBackendContract:
    def test_roster_matches_config_prediction(self, shaped_platform):
        assert (shaped_platform.backends.roster() ==
                backend_roster(shaped_platform.config))

    def test_candidates_are_the_offloadable_backends(self, shaped_platform):
        candidates = shaped_platform.backends.offload_candidates()
        for backend in shaped_platform.backends:
            assert ((backend.resource in candidates) ==
                    backend.offloadable), backend.resource

    def test_latency_positive_and_monotone_in_size(self, shaped_platform):
        for backend in shaped_platform.backends:
            for op in SAMPLE_OPS:
                if not backend.supports(op):
                    continue
                small = backend.operation_latency(op, 16 * KIB, ELEMENT_BITS)
                large = backend.operation_latency(op, 512 * KIB,
                                                  ELEMENT_BITS)
                assert small > 0, (backend.resource, op)
                assert large >= small, (backend.resource, op)

    def test_energy_non_negative(self, shaped_platform):
        for backend in shaped_platform.backends:
            for op in SAMPLE_OPS:
                if not backend.supports(op):
                    continue
                energy = backend.operation_energy(op, 16 * KIB, ELEMENT_BITS)
                assert energy >= 0, (backend.resource, op)

    def test_supports_consistent_with_execute(self, shaped_platform):
        for backend in shaped_platform.backends:
            for op in SAMPLE_OPS:
                if backend.supports(op):
                    assert backend.operation_latency(
                        op, 16 * KIB, ELEMENT_BITS) > 0, (backend.resource, op)
                    backend.execute(0.0, op, 16 * KIB, ELEMENT_BITS)
                else:
                    with pytest.raises(SimulationError):
                        backend.operation_latency(op, 16 * KIB, ELEMENT_BITS)

    def test_utilization_within_unit_interval(self, shaped_platform):
        horizon = 1e15  # longer than any activity the test generates
        for backend in shaped_platform.backends:
            assert backend.utilization(horizon) == 0.0, backend.resource
            op = next(op for op in SAMPLE_OPS if backend.supports(op))
            backend.execute(0.0, op, 64 * KIB, ELEMENT_BITS)
            value = backend.utilization(horizon)
            assert 0.0 <= value <= 1.0, backend.resource

    def test_identity_plumbing(self, shaped_platform):
        for backend in shaped_platform.backends:
            assert isinstance(backend.home_location, DataLocation)
            assert backend.queue.resource is backend.resource
            assert backend.kind in Resource
            assert backend.resource.value  # non-empty report key
            # In-SSD grouping follows the family.
            assert backend.resource.is_in_ssd == backend.kind.is_in_ssd


class TestDefaultRosterShape:
    """Golden safety net: the default roster is exactly the paper's."""

    def test_default_candidates_are_the_paper_trio(self):
        platform = SSDPlatform(_shape_configs()["default"])
        assert platform.backends.offload_candidates() == SSD_RESOURCES
        assert platform.backends.roster() == (
            "isp", "pud-ssd", "ifp", "host-cpu", "host-gpu")

    def test_default_homes_match_the_paper(self):
        backends = SSDPlatform(_shape_configs()["default"]).backends
        assert backends[Resource.IFP].home_location is DataLocation.FLASH
        assert backends[Resource.ISP].home_location is DataLocation.SSD_DRAM
        assert backends[Resource.PUD].home_location is DataLocation.SSD_DRAM
        assert backends[Resource.HOST_CPU].home_location is DataLocation.HOST
        # The documentation constant must track the live backends: every
        # canonical identity's backend homes where the paper says it does.
        for resource, home in RESOURCE_HOME_LOCATION.items():
            assert backends[resource].home_location is home, resource

    def test_duplicate_registration_rejected(self):
        platform = SSDPlatform(_shape_configs()["default"])
        backend = platform.backends[Resource.ISP]
        with pytest.raises(SimulationError, match="already registered"):
            platform.backends.register(backend)

    def test_unknown_backend_lookup_is_actionable(self):
        platform = SSDPlatform(_shape_configs()["default"])
        with pytest.raises(SimulationError, match="registered backends"):
            platform.backends["no-such-backend"]

    def test_isp_cores_must_be_positive(self):
        with pytest.raises(SimulationError):
            SSDPlatform(PlatformConfig(ssd=small_ssd_config(), isp_cores=0))
