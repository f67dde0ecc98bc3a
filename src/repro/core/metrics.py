"""Execution metrics and result containers.

Everything the evaluation section reports is derived from the structures in
this module: total execution time and speedups (Fig. 5 / 7a), energy split
into data movement and computation (Fig. 7b), per-instruction latency
distributions and tails (Fig. 8), per-resource offloading fractions
(Fig. 9), and the instruction-to-resource timeline (Fig. 10).

A run's per-instruction records are stored as columns: the dispatch loops
produce one plain tuple per instruction in :class:`InstructionRecord` field
order (an :data:`InstructionRow`), and the run's :class:`RecordTable` turns
them into typed arrays once.  The table reads as a sequence of
:class:`InstructionRecord`; the metrics here scan its columns directly, and
it pickles as its columns into the sweep cache.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, fields
from operator import attrgetter, sub
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro import stats
from repro.common import OpType, Resource, ResourceLike, SSD_RESOURCES
from repro.energy.model import EnergyBreakdown
from repro.ssd.lifetime.engine import MaintenanceStats


@dataclass(slots=True)
class InstructionRecord:
    """Timing of one executed instruction."""

    uid: int
    op: OpType
    resource: ResourceLike
    dispatch_ns: float
    ready_ns: float
    start_ns: float
    end_ns: float
    compute_ns: float
    data_movement_ns: float
    overhead_ns: float

    @property
    def latency_ns(self) -> float:
        """End-to-end latency from dispatch to completion."""
        return self.end_ns - self.dispatch_ns

    @property
    def queue_wait_ns(self) -> float:
        """Time spent waiting for an execution slot once ready."""
        return self.start_ns - self.ready_ns


#: :class:`InstructionRecord`'s field names in order: the layout of an
#: :data:`InstructionRow` and of a :class:`RecordTable`'s columns.
RECORD_FIELDS: Tuple[str, ...] = tuple(
    record_field.name for record_field in fields(InstructionRecord))

#: One executed instruction as the dispatch loops produce it: a plain
#: tuple in :data:`RECORD_FIELDS` order.
InstructionRow = Tuple[int, OpType, ResourceLike, float, float, float,
                       float, float, float, float]

#: Position of ``end_ns`` in an :data:`InstructionRow`.
END_NS = RECORD_FIELDS.index("end_ns")

#: Each column's ``array`` typecode; ``None`` marks a list of references.
_COLUMN_TYPECODES = ("q", None, None) + ("d",) * (len(RECORD_FIELDS) - 3)

_record_row = attrgetter(*RECORD_FIELDS)


class RecordTable(Sequence[InstructionRecord]):
    """One run's instruction records, stored as columns in issue order.

    ``uid`` is an ``array('q')``, the seven time fields are ``array('d')``
    and ``op`` / ``resource`` are lists of references.  The table is a
    read-only sequence of :class:`InstructionRecord` (length, iteration,
    int index, slice and ``==``) that builds a record only when one is
    read, and it pickles as its columns.
    """

    __slots__ = RECORD_FIELDS

    def __init__(self, *columns: Sequence) -> None:
        # Also the unpickle path: a damaged sweep-cache entry must fail
        # here (and be recomputed) rather than yield a ragged table.
        if len(columns) != len(RECORD_FIELDS):
            raise ValueError(f"a record table has {len(RECORD_FIELDS)} "
                             f"columns, got {len(columns)}")
        length = len(columns[0])
        for name, typecode, column in zip(RECORD_FIELDS, _COLUMN_TYPECODES,
                                          columns):
            if typecode is None:
                expected, typed = "a list", type(column) is list
            else:
                expected = f"array({typecode!r})"
                typed = (type(column) is array
                         and column.typecode == typecode)
            if not typed:
                raise TypeError(f"column {name!r} must be {expected}, got "
                                f"{type(column).__name__}")
            if len(column) != length:
                raise ValueError(f"column {name!r} holds {len(column)} "
                                 f"values, column 'uid' holds {length}")
            setattr(self, name, column)

    @classmethod
    def from_rows(cls, rows: Sequence[InstructionRow]) -> "RecordTable":
        """Turn a run's rows into columns, once."""
        columns = list(zip(*rows)) if rows else [()] * len(RECORD_FIELDS)
        return cls(*(list(column) if typecode is None
                     else array(typecode, column)
                     for typecode, column in zip(_COLUMN_TYPECODES,
                                                 columns)))

    @classmethod
    def from_records(cls, records: Iterable[InstructionRecord]
                     ) -> "RecordTable":
        return cls.from_rows([_record_row(record) for record in records])

    def columns(self) -> Tuple[Sequence, ...]:
        """The columns in :data:`RECORD_FIELDS` order."""
        return tuple(getattr(self, name) for name in RECORD_FIELDS)

    def latencies_ns(self) -> List[float]:
        """Each record's ``end_ns - dispatch_ns``, elementwise."""
        return list(map(sub, self.end_ns, self.dispatch_ns))

    def __len__(self) -> int:
        return len(self.uid)

    def __iter__(self) -> Iterator[InstructionRecord]:
        return map(InstructionRecord, *self.columns())

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[InstructionRecord, "RecordTable"]:
        if isinstance(index, slice):
            return RecordTable(*(column[index] for column in self.columns()))
        return InstructionRecord(*(column[index]
                                   for column in self.columns()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordTable):
            return self.columns() == other.columns()
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __reduce__(self):
        return (RecordTable, self.columns())


@dataclass
class ExecutionBreakdown:
    """Where execution time went (Fig. 4 categories)."""

    compute_ns: float = 0.0
    host_data_movement_ns: float = 0.0
    internal_data_movement_ns: float = 0.0
    flash_read_ns: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "compute": self.compute_ns,
            "host_data_movement": self.host_data_movement_ns,
            "internal_data_movement": self.internal_data_movement_ns,
            "flash_read": self.flash_read_ns,
        }

    def normalized(self) -> Dict[str, float]:
        total = sum(self.as_dict().values())
        if total <= 0:
            return {key: 0.0 for key in self.as_dict()}
        return {key: value / total for key, value in self.as_dict().items()}


@dataclass
class ExecutionResult:
    """The outcome of executing one workload under one policy."""

    workload: str
    policy: str
    total_time_ns: float
    #: Every executed instruction's record, in issue order.  A hand-built
    #: list of :class:`InstructionRecord` is converted on construction.
    records: RecordTable
    energy: EnergyBreakdown
    breakdown: ExecutionBreakdown
    offload_overhead_avg_ns: float = 0.0
    offload_overhead_max_ns: float = 0.0
    #: Device-lifetime view of the run: background GC/WL traffic, wear
    #: statistics and write amplification.  Every run the runtimes
    #: execute carries one; ``None`` only on results built by hand.
    maintenance: Optional[MaintenanceStats] = None

    def __post_init__(self) -> None:
        if not isinstance(self.records, RecordTable):
            self.records = RecordTable.from_records(self.records)

    # -- Derived metrics ----------------------------------------------------------

    @property
    def instructions(self) -> int:
        return len(self.records)

    @property
    def total_energy_nj(self) -> float:
        return self.energy.total_nj

    def resource_fractions(self) -> Dict[ResourceLike, float]:
        """Fraction of instructions executed on each backend (Fig. 9)."""
        records = self.records
        if not records:
            return {}
        total = len(records)
        # Counter keeps first-occurrence order, as the report tables do.
        return {resource: count / total
                for resource, count in Counter(records.resource).items()}

    def ssd_resource_fractions(self) -> Dict[ResourceLike, float]:
        """Fractions restricted to the in-SSD backends (Fig. 9).

        The canonical trio is always present (zero when unused); backends
        a registry-grown platform added (per-core ISP queues, extra PuD
        tiers) appear under their own identities.
        """
        fractions = self.resource_fractions()
        ssd_only: Dict[ResourceLike, float] = {
            r: fractions.get(r, 0.0) for r in SSD_RESOURCES}
        for resource, value in fractions.items():
            if resource.is_in_ssd and resource not in ssd_only:
                ssd_only[resource] = value
        total = sum(ssd_only.values())
        if total <= 0:
            return ssd_only
        return {r: value / total for r, value in ssd_only.items()}

    def kind_fractions(self) -> Dict[Resource, float]:
        """In-SSD fractions aggregated by resource family.

        Folds registry-grown backends into their canonical family (all
        ``isp[i]`` cores count as ISP, every PuD tier as PuD-SSD), which
        is what roster ablations compare across platform shapes.
        """
        fractions = self.ssd_resource_fractions()
        by_kind: Dict[Resource, float] = {r: 0.0 for r in SSD_RESOURCES}
        for resource, value in fractions.items():
            by_kind[resource.kind] = by_kind.get(resource.kind, 0.0) + value
        return by_kind

    def latency_percentile(self, percentile: float) -> float:
        """Per-instruction latency percentile in nanoseconds (Fig. 8)."""
        if not self.records:
            return 0.0
        return stats.percentile(self.records.latencies_ns(), percentile)

    @property
    def p99_latency_ns(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def p9999_latency_ns(self) -> float:
        return self.latency_percentile(99.99)

    def mean_latency_ns(self) -> float:
        if not self.records:
            return 0.0
        return stats.mean(self.records.latencies_ns())

    def timeline(self, limit: Optional[int] = None
                 ) -> List[Dict[str, object]]:
        """Instruction-to-resource mapping over time (Fig. 10): the first
        ``limit`` records, or all of them when ``limit`` is ``None``."""
        records = self.records
        if limit is None:
            limit = len(records)
        elif limit < 0:
            raise ValueError(f"timeline limit must be >= 0, got {limit}")
        return [
            {"index": index, "uid": uid, "op": op.value,
             "resource": resource.value, "start_ns": start_ns,
             "end_ns": end_ns}
            for index, uid, op, resource, start_ns, end_ns in zip(
                range(limit), records.uid, records.op, records.resource,
                records.start_ns, records.end_ns)
        ]


def speedup(baseline: ExecutionResult, candidate: ExecutionResult) -> float:
    """Speedup of ``candidate`` over ``baseline`` (>1 means faster).

    Every simulated run takes time, so a non-positive candidate time means
    a broken result; it raises instead of reporting an infinite speedup.
    """
    if not candidate.total_time_ns > 0:
        raise ValueError(
            f"speedup of {candidate.policy!r} on {candidate.workload!r} is "
            f"undefined: its time is {candidate.total_time_ns!r} ns")
    return baseline.total_time_ns / candidate.total_time_ns


def energy_reduction(baseline: ExecutionResult,
                     candidate: ExecutionResult) -> float:
    """Fractional energy reduction of ``candidate`` versus ``baseline``.

    A non-positive baseline energy cannot normalize anything; it raises
    instead of reporting "no reduction".
    """
    if not baseline.total_energy_nj > 0:
        raise ValueError(
            f"energy reduction versus {baseline.policy!r} on "
            f"{baseline.workload!r} is undefined: its energy is "
            f"{baseline.total_energy_nj!r} nJ")
    return 1.0 - candidate.total_energy_nj / baseline.total_energy_nj


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean used for the GMEAN columns of Fig. 5 / 7.

    An empty sequence gives ``0.0``; a non-positive (or NaN) value raises,
    since dropping it would silently shift the mean.  numpy is imported
    here, not at module level: ``np.exp`` and ``math.exp`` disagree in the
    last bit on some inputs, and no other statistic needs numpy.
    """
    import numpy as np

    array = np.asarray(values, dtype=float)
    if array.size == 0:
        return 0.0
    bad = array[~(array > 0)]
    if bad.size:
        raise ValueError(
            f"geometric mean needs positive values; got {float(bad[0])!r}")
    return float(np.exp(np.mean(np.log(array))))
