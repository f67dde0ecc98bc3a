"""The pluggable compute-backend layer.

The paper's cost function (Eqns. 1-2) argmins over the SSD's computation
resources.  Rather than baking the trio (ISP, PuD-SSD, IFP) into every
layer, the platform builds a :class:`BackendRegistry` of
:class:`ComputeBackend` objects from its configuration, and the whole
offload stack -- feature collection, cost model, policies, transformation,
dispatch -- discovers its candidates from the registry.  Adding a compute
tier (per-core ISP queues, a CXL-attached PuD device, ...) is then a
configuration entry plus one backend class holding its device model; the
offloader and cost model are untouched.

A backend bundles everything the runtime offloader asks about one
computation resource:

* ``resource`` -- its identity (a :class:`~repro.common.Resource` member for
  the default roster, a :class:`~repro.common.BackendId` for dynamically
  registered backends);
* ``kind`` -- the canonical resource family, which selects the native ISA
  and the Fig. 9 grouping;
* ``home_location`` -- where operands must reside for it to compute
  (drives the data-movement feature, the offloader's operand moves and,
  with contention feedback on, the monitor's path key);
* ``supports`` / ``operation_latency`` / ``operation_energy`` -- the
  precomputed per-op capability/latency/energy points (Section 4.5);
* ``execute`` -- actually run an operation.  The dispatcher already
  reserves the backend's execution queue, so only an engine whose
  operations occupy shared sub-units (PuD's DRAM banks, the CXL tier's
  command link) overrides the default no-op;
* ``utilization`` -- the bandwidth-utilization snapshot consumed by the
  BW-Offloading baseline;
* ``link_backlog_ns`` / ``execution_channel_bytes`` -- backlog of any
  backend-private link (e.g. the CXL command link) and shared
  flash-channel traffic imposed by execution itself (Ares-Flash partial
  products).  The feature collector hands both to
  :meth:`~repro.core.contention.LinkContentionMonitor.penalty_ns` when
  ``PlatformConfig.contention_feedback`` is enabled (the offloader also
  reserves the declared execution traffic on the channel group);
* ``queue`` -- the backend's execution queue (Section 5.1, "NDP
  Extensions"), whose running latency counter is the queueing-delay
  feature.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterator, Optional, Tuple

from repro.common import (DataLocation, OpType, Resource, ResourceLike,
                          SimulationError)
from repro.ssd.queues import ExecutionQueue


class ComputeBackend(abc.ABC):
    """One computation resource the SSD offloader can target.

    Each concrete backend is one class holding its own device model
    (:mod:`repro.isp.core`, :mod:`repro.dram.pud`, :mod:`repro.dram.cxl`,
    :mod:`repro.ifp.unit`, :mod:`repro.host.cpu`, :mod:`repro.host.gpu`).
    """

    #: Whether the SSD offloader may pick this backend (Eqn. 2 candidates).
    #: Host engines are modelled as backends too -- the OSP baselines run
    #: through the same interface -- but are not offload candidates.
    offloadable: bool = True

    def __init__(self, resource: ResourceLike, home_location: DataLocation,
                 queue_parallelism: int = 1) -> None:
        self.resource = resource
        self.home_location = home_location
        self.queue = ExecutionQueue(resource, queue_parallelism)

    @property
    def kind(self) -> Resource:
        """Canonical resource family of this backend."""
        return self.resource.kind

    @property
    def native_chunk_bytes(self) -> Optional[int]:
        """Largest chunk one native operation covers (``None``: page-sized).

        Used by the instruction transformer to split the compile-time
        vector width into resource-sized sub-operations.
        """
        return None

    # -- Capability / estimation -------------------------------------------

    @abc.abstractmethod
    def supports(self, op: OpType) -> bool:
        """Whether this backend has a native implementation of ``op``."""

    @abc.abstractmethod
    def operation_latency(self, op: OpType, size_bytes: int,
                          element_bits: int) -> float:
        """Uncontended latency of ``op`` over ``size_bytes`` (ns)."""

    @abc.abstractmethod
    def operation_energy(self, op: OpType, size_bytes: int,
                         element_bits: int) -> float:
        """Energy of ``op`` over ``size_bytes`` (nJ)."""

    # -- Execution ----------------------------------------------------------

    def execute(self, now: float, op: OpType, size_bytes: int,
                element_bits: int) -> None:
        """Run ``op`` from ``now``, reserving the shared sub-units it occupies.

        The operation's latency and energy are the estimate points above,
        and its execution slot is the queue reservation the dispatcher
        makes; an engine whose operations reserve nothing else needs no
        override.
        """

    # -- Utilization snapshot (BW-Offloading input) --------------------------

    @abc.abstractmethod
    def utilization(self, elapsed: float) -> float:
        """Approximate utilization of this backend's data path in [0, 1]."""

    # -- Contention feedback (cost-model input, Section 4.5 extension) -------

    def link_backlog_ns(self, now: float) -> float:
        """Queueing delay of backend-private links, in nanoseconds.

        The platform's shared buses (flash channels, SSD DRAM bus, PCIe)
        are observed through the movement-overrun feedback; a backend that
        owns an extra link on its operand path (the CXL-attached PuD
        tier's CXL link) reports that link's backlog here so the
        contention monitor (``PlatformConfig.contention_feedback``) can
        fold it into the candidate's movement penalty.  Backends without private links
        report ``0.0``.
        """
        return 0.0

    def execution_channel_bytes(self, op: OpType, size_bytes: int,
                                element_bits: int) -> float:
        """Shared flash-channel traffic executing ``op`` would generate.

        In-flash arithmetic (Ares-Flash) shuttles partial products between
        the flash chips and the controller while it runs, occupying the
        shared channels (Section 6.4); every other backend computes out of
        its home location and reports ``0``.  The offloader reserves this
        traffic on the channel group during execution, and the
        contention-aware cost model charges the candidate its occupancy --
        the traffic does not extend the instruction's own latency, so
        without feedback it is an unpriced externality on every
        flash-bound movement.
        """
        return 0.0


class BackendRegistry:
    """Ordered registry of the platform's compute backends.

    Registration order is semantically meaningful: it defines the stable
    tie-break order of the cost function's argmin and the candidate
    iteration order of every policy, independent of enum definition order.
    """

    def __init__(self) -> None:
        self._backends: "Dict[ResourceLike, ComputeBackend]" = {}
        self._candidates: Optional[Tuple[ResourceLike, ...]] = None

    # -- Registration --------------------------------------------------------

    def register(self, backend: ComputeBackend) -> ComputeBackend:
        key = backend.resource
        if key in self._backends:
            raise SimulationError(
                f"compute backend {key!r} is already registered")
        self._backends[key] = backend
        self._candidates = None
        return backend

    # -- Lookup --------------------------------------------------------------

    def __getitem__(self, resource: ResourceLike) -> ComputeBackend:
        try:
            return self._backends[resource]
        except KeyError:
            known = ", ".join(str(key) for key in self._backends)
            raise SimulationError(
                f"no compute backend registered for {resource!r}; "
                f"registered backends: {known}") from None

    def __contains__(self, resource: ResourceLike) -> bool:
        return resource in self._backends

    def __iter__(self) -> Iterator[ComputeBackend]:
        return iter(self._backends.values())

    def __len__(self) -> int:
        return len(self._backends)

    def ids(self) -> Tuple[ResourceLike, ...]:
        """All backend identities, in registration order."""
        return tuple(self._backends)

    def roster(self) -> Tuple[str, ...]:
        """Human-readable backend identities, in registration order."""
        return tuple(key.value for key in self._backends)

    # -- Candidate discovery -------------------------------------------------

    def offload_candidates(self) -> Tuple[ResourceLike, ...]:
        """Identities of the backends the SSD offloader may target.

        The tuple is cached (and invalidated on registration): the feature
        collector asks once per instruction.
        """
        candidates = self._candidates
        if candidates is None:
            candidates = tuple(key for key, backend in self._backends.items()
                               if backend.offloadable)
            self._candidates = candidates
        return candidates

    def queues(self) -> "Dict[ResourceLike, ExecutionQueue]":
        """Backend identity -> execution queue, in registration order."""
        return {key: backend.queue
                for key, backend in self._backends.items()}
