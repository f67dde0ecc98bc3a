"""CXL-attached processing-using-DRAM tier (opt-in compute backend).

A CXL memory expander with an Ambit/SIMDRAM-style compute capability sits
*outside* the SSD, on the host-side CXL link: its operands are
host-addressable (home location = host memory, reached over the platform's
host link), while its bulk-bitwise compute point is its own -- a wider bank
pool and device-grade LPDDR timing, with every native operation paying a
CXL command round-trip on top.

The tier exists to prove the backend registry: enabling it is a single
:class:`~repro.core.platform.PlatformConfig` entry
(``cxl_pud=CXLPuDConfig()``), after which the cost function weighs it
against the in-SSD resources -- cheap for compute-heavy operations on
host-resident data, expensive for flash-resident streaming -- without any
edits to the offloader, cost model or feature collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common import DataLocation, GIB, OpType, ResourceLike
from repro.dram.config import DRAMConfig
from repro.dram.dram import DRAMDevice
from repro.dram.pud import PuDBackend
from repro.ssd.events import SharedBus


def _default_cxl_dram() -> DRAMConfig:
    """A CXL expander's DRAM point: more banks, slightly slower rows.

    CXL memory devices carry more parallel banks than the SSD's LPDDR4
    channel but add protocol/controller latency to every row operation;
    the bbop latency/energy values below are that trade-off.
    """
    return DRAMConfig(capacity_bytes=4 * GIB, banks=16,
                      bbop_latency_ns=60.0, bbop_energy_nj=1.05)


@dataclass(frozen=True)
class CXLPuDConfig:
    """Configuration of the opt-in CXL-attached PuD tier."""

    dram: DRAMConfig = field(default_factory=_default_cxl_dram)
    #: CXL command + completion round-trip charged once per operation.
    link_latency_ns: float = 600.0
    #: Link energy of that round-trip (nJ per operation).
    link_energy_nj: float = 40.0
    #: Bandwidth of the CXL link's command/completion path (bytes/ns).
    link_bandwidth_bytes_per_ns: float = 16.0
    #: Command + completion flit bytes serialized on the link per native
    #: operation (the payload stays in the expander; only descriptors
    #: cross the link).
    command_bytes: int = 64


class CXLPuDBackend(PuDBackend):
    """PuD compute on a CXL memory expander.

    Computes on its own :class:`DRAMDevice` (bank reservations and
    utilization are private to the tier) and charges the CXL link
    round-trip on every operation.
    """

    def __init__(self, resource: ResourceLike, config: CXLPuDConfig) -> None:
        super().__init__(resource, DRAMDevice(config.dram), DataLocation.HOST)
        self.cxl = config
        #: The CXL command/completion link.  Operation descriptors are
        #: serialized on it, so a tier absorbing a burst of work shows a
        #: real backlog here -- the signal the contention-aware cost model
        #: samples via :meth:`link_backlog_ns`.
        self.link = SharedBus(f"{resource.value}-link",
                              config.link_bandwidth_bytes_per_ns)

    def operation_latency(self, op: OpType, size_bytes: int,
                          element_bits: int) -> float:
        return (self.cxl.link_latency_ns +
                super().operation_latency(op, size_bytes, element_bits))

    def operation_energy(self, op: OpType, size_bytes: int,
                         element_bits: int) -> float:
        return (self.cxl.link_energy_nj +
                super().operation_energy(op, size_bytes, element_bits))

    def execute(self, now: float, op: OpType, size_bytes: int,
                element_bits: int) -> None:
        # The operation descriptor serializes on the shared CXL link, then
        # pays the command round-trip before the in-expander compute runs.
        command_end = self.link.transfer(now, self.cxl.command_bytes)
        super().execute(command_end + self.cxl.link_latency_ns, op,
                        size_bytes, element_bits)

    def utilization(self, elapsed: float) -> float:
        # The execution-queue occupancy, not the tier's private DRAM bus
        # (which bulk-bitwise compute never touches) nor the command link
        # (whose 64-byte descriptors are busy for nanoseconds per op):
        # the queue's servers are reserved for every operation's full
        # duration, so this is the one snapshot that actually rises with
        # load on the tier.
        return self.queue.utilization(elapsed)

    def link_backlog_ns(self, now: float) -> float:
        """Queueing delay on the tier's private CXL command link."""
        return self.link.queueing_delay(now)
