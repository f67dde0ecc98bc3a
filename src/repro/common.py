"""Common types shared across all Conduit subsystems.

This module is intentionally dependency-free: every other package in
``repro`` (the SSD substrate, the DRAM / ISP / IFP compute models, the
compiler, and the runtime offloader) imports its enumerations and unit
constants from here, which keeps the dependency graph acyclic.

The vocabulary follows the paper:

* :class:`OpType` -- the operation types the compile-time vectorizer emits
  and the runtime offloader reasons about (Section 4.3).
* :class:`OpClass` / :class:`LatencyClass` -- the operation categories used
  by the workload characterization (Table 3) and the cost function.
* :class:`Resource` -- the computation resources an instruction can be
  offloaded to (Section 2.2): ISP, PuD-SSD, IFP, plus the host CPU/GPU used
  for the outside-storage-processing baselines.
* :class:`DataLocation` -- where an operand currently resides (Section 4.4).
"""

from __future__ import annotations

import dataclasses
import enum
import typing

# --------------------------------------------------------------------------
# Unit constants.  All simulator latencies are expressed in nanoseconds and
# all sizes in bytes unless a name says otherwise.
# --------------------------------------------------------------------------

NS = 1.0
US = 1_000.0
MS = 1_000_000.0
SEC = 1_000_000_000.0

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Energy values are expressed in nanojoules.
NJ = 1.0
UJ = 1_000.0
MJ = 1_000_000.0


class OpType(enum.Enum):
    """Vector operation types produced by Conduit's vectorizer.

    The names mirror the LLVM-IR-level operations the paper's compiler pass
    emits (Fig. 6 shows ``xor``/``and`` on ``<4096 x i32>`` vectors) plus the
    arithmetic, predication and data-movement operations required by the six
    evaluated workloads.
    """

    # Bulk-bitwise operations (supported by all three resources).
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    NAND = "nand"
    NOR = "nor"
    MAJ = "maj"

    # Shifts / rotates.
    SHL = "shl"
    SHR = "shr"

    # Arithmetic.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MAC = "mac"

    # Reductions.
    REDUCE_ADD = "reduce_add"
    REDUCE_MAX = "reduce_max"
    REDUCE_MIN = "reduce_min"

    # Predication / relational.
    CMP_EQ = "cmp_eq"
    CMP_LT = "cmp_lt"
    CMP_GT = "cmp_gt"
    SELECT = "select"

    # Data movement / layout.
    COPY = "copy"
    SHUFFLE = "shuffle"
    GATHER = "gather"
    SCATTER = "scatter"
    LOAD = "load"
    STORE = "store"

    # Scalar / control-intensive work that could not be vectorized.  These
    # always execute on the SSD controller cores (or the host for OSP).
    SCALAR = "scalar"
    BRANCH = "branch"
    CALL = "call"

    # Members are singletons, so the identity hash is consistent with
    # equality and avoids re-hashing the member name on every dict/set
    # probe (these enums key the simulator's hottest tables).
    __hash__ = object.__hash__

    @property
    def is_bitwise(self) -> bool:
        return self in _BITWISE_OPS

    @property
    def is_arithmetic(self) -> bool:
        return self in _ARITHMETIC_OPS

    @property
    def is_predication(self) -> bool:
        return self in _PREDICATION_OPS

    @property
    def is_memory(self) -> bool:
        return self in _MEMORY_OPS

    @property
    def is_control(self) -> bool:
        return self in _CONTROL_OPS


_BITWISE_OPS = frozenset(
    {OpType.AND, OpType.OR, OpType.XOR, OpType.NOT, OpType.NAND, OpType.NOR,
     OpType.MAJ, OpType.SHL, OpType.SHR}
)
_ARITHMETIC_OPS = frozenset(
    {OpType.ADD, OpType.SUB, OpType.MUL, OpType.DIV, OpType.MAC,
     OpType.REDUCE_ADD, OpType.REDUCE_MAX, OpType.REDUCE_MIN}
)
_PREDICATION_OPS = frozenset(
    {OpType.CMP_EQ, OpType.CMP_LT, OpType.CMP_GT, OpType.SELECT}
)
_MEMORY_OPS = frozenset(
    {OpType.COPY, OpType.SHUFFLE, OpType.GATHER, OpType.SCATTER,
     OpType.LOAD, OpType.STORE}
)
_CONTROL_OPS = frozenset({OpType.SCALAR, OpType.BRANCH, OpType.CALL})


class OpClass(enum.Enum):
    """Coarse operation category used by the cost function (Table 1)."""

    BITWISE = "bulk-bitwise"
    ARITHMETIC = "arithmetic"
    PREDICATION = "predication"
    MEMORY = "memory"
    CONTROL = "control"

    @classmethod
    def of(cls, op: OpType) -> "OpClass":
        if op.is_bitwise:
            return cls.BITWISE
        if op.is_arithmetic:
            return cls.ARITHMETIC
        if op.is_predication:
            return cls.PREDICATION
        if op.is_memory:
            return cls.MEMORY
        return cls.CONTROL


class LatencyClass(enum.Enum):
    """Low / medium / high latency buckets used by Table 3.

    The paper classifies bitwise and logical operations as low latency,
    additions and predication as medium latency, and multiplications (and
    other multi-cycle arithmetic) as high latency.
    """

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    @classmethod
    def of(cls, op: OpType) -> "LatencyClass":
        if op in _HIGH_LATENCY_OPS:
            return cls.HIGH
        if op in _MEDIUM_LATENCY_OPS:
            return cls.MEDIUM
        return cls.LOW


_HIGH_LATENCY_OPS = frozenset(
    {OpType.MUL, OpType.DIV, OpType.MAC, OpType.GATHER, OpType.SCATTER}
)
_MEDIUM_LATENCY_OPS = frozenset(
    {OpType.ADD, OpType.SUB, OpType.REDUCE_ADD, OpType.REDUCE_MAX,
     OpType.REDUCE_MIN, OpType.CMP_EQ, OpType.CMP_LT, OpType.CMP_GT,
     OpType.SELECT, OpType.SHUFFLE, OpType.SCALAR, OpType.BRANCH,
     OpType.CALL}
)


class Resource(enum.Enum):
    """Canonical computation-resource families.

    Every compute backend belongs to one of these families (its ``kind``):
    the family determines the native ISA a backend speaks, the policies that
    single it out (e.g. the PuD-SSD-only baseline), and the Fig. 9 grouping.
    The *identity* of a backend is either a member of this enum (the default
    one-backend-per-family roster) or a :class:`BackendId` for dynamically
    registered backends such as per-core ISP queues or a CXL-attached PuD
    tier.
    """

    ISP = "isp"
    PUD = "pud-ssd"
    IFP = "ifp"
    HOST_CPU = "host-cpu"
    HOST_GPU = "host-gpu"

    __hash__ = object.__hash__

    @property
    def is_in_ssd(self) -> bool:
        return self in (Resource.ISP, Resource.PUD, Resource.IFP)

    @property
    def kind(self) -> "Resource":
        """The resource family (a canonical enum member is its own kind)."""
        return self


@dataclasses.dataclass(frozen=True)
class BackendId:
    """Identity of a dynamically registered compute backend.

    Quacks like a :class:`Resource` member where the metrics and energy
    layers need it (``value`` for report keys, ``kind`` / ``is_in_ssd`` for
    grouping), so a registry-grown platform flows through the offload stack
    without any enum surgery.
    """

    value: str
    kind: Resource

    @property
    def is_in_ssd(self) -> bool:
        """Whether the backend counts toward the SSD offloader's mix.

        Follows the resource family: a backend of an offloadable family
        (e.g. the CXL-attached PuD tier, physically host-side) is part of
        the offloader's decision distribution even though its operands
        live in host memory -- ``home_location`` is the physical truth.
        """
        return self.kind.is_in_ssd

    def __str__(self) -> str:
        return self.value


#: Anything that can identify a compute backend: a canonical enum member or
#: a dynamically minted :class:`BackendId`.
ResourceLike = typing.Union[Resource, BackendId]


#: The three SSD-internal computation resources in the order the paper lists
#: them (ISP, PuD-SSD, IFP).  This is the *default* backend roster; the
#: offload stack itself discovers candidates from the platform's
#: :class:`~repro.core.backends.BackendRegistry` rather than this constant.
SSD_RESOURCES = (Resource.ISP, Resource.PUD, Resource.IFP)


class DataLocation(enum.Enum):
    """Current physical location of an operand's logical pages."""

    FLASH = "flash"
    SSD_DRAM = "ssd-dram"
    HOST = "host"

    __hash__ = object.__hash__


#: The location at which operands must reside for each resource to compute.
#: The SSD controller cores (ISP) operate on bulk operands staged in the SSD
#: DRAM (their SRAM only holds working registers/tiles), which is why the
#: paper's operand-location field is a single flash/DRAM bit and why ISP and
#: PuD-SSD incur similar data-movement overheads (Section 3.1, footnote 2).
RESOURCE_HOME_LOCATION = {
    Resource.IFP: DataLocation.FLASH,
    Resource.PUD: DataLocation.SSD_DRAM,
    Resource.ISP: DataLocation.SSD_DRAM,
    Resource.HOST_CPU: DataLocation.HOST,
    Resource.HOST_GPU: DataLocation.HOST,
}


class SimulationError(RuntimeError):
    """Raised when the simulator reaches an inconsistent state."""


class ConfigurationError(ValueError):
    """Raised when a configuration object fails validation."""
