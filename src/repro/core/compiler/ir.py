"""Vector intermediate representation (IR).

Conduit's compile-time preprocessing transforms scalar application loops
into wide SIMD operations and embeds lightweight metadata (instruction type,
operand pointers, element sizes, vector length) into the optimized IR so
that the runtime offloader can make fast decisions without re-analysing the
code (Section 4.3.1).  This module defines that optimized IR:

* :class:`ArraySpec` / :class:`ArrayRef` -- application arrays stored as
  logical pages in the SSD and the regions instructions read/write.
* :class:`VectorInstruction` -- one SIMD operation with embedded metadata
  and explicit data dependencies.
* :class:`VectorProgram` -- the full optimized IR shipped to the SSD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common import LatencyClass, OpClass, OpType, SimulationError

#: Default vector width used by the paper's compiler flags
#: (``-force-vector-width=4096`` for 32-bit operands -> 16 KiB vectors).
DEFAULT_VECTOR_WIDTH = 4096
DEFAULT_ELEMENT_BITS = 32


@dataclass(frozen=True)
class ArraySpec:
    """One application array resident in the SSD."""

    name: str
    elements: int
    element_bits: int = DEFAULT_ELEMENT_BITS

    @property
    def size_bytes(self) -> int:
        return self.elements * self.element_bits // 8

    def pages(self, page_size_bytes: int) -> int:
        return max(1, math.ceil(self.size_bytes / page_size_bytes))


@dataclass(frozen=True)
class ArrayRef:
    """A contiguous region of an array used as an operand."""

    array: str
    offset: int
    length: int

    def __post_init__(self) -> None:
        # References key the layout's memoized run resolutions, so their
        # hash is probed on every operand lookup; cache it (the value is
        # identical to the generated field-tuple hash).
        object.__setattr__(self, "_hash",
                           hash((self.array, self.offset, self.length)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        # Same contract as the generated field-tuple __eq__, with an
        # identity fast path: layout-cache probes compare refs that are
        # usually the same object or differ in a trailing field.
        if self is other:
            return True
        if other.__class__ is ArrayRef:
            return (self.array == other.array
                    and self.offset == other.offset
                    and self.length == other.length)
        return NotImplemented

    def size_bytes(self, element_bits: int) -> int:
        return self.length * element_bits // 8

    @property
    def end(self) -> int:
        return self.offset + self.length

    def overlaps(self, other: "ArrayRef") -> bool:
        if self.array != other.array:
            return False
        return self.offset < other.end and other.offset < self.end


@dataclass(frozen=True)
class Immediate:
    """A constant operand (broadcast across the vector)."""

    value: float = 0.0


Operand = object  # ArrayRef | Immediate


@dataclass
class InstructionMetadata:
    """Metadata embedded at compile time to guide runtime offloading.

    The paper's Section 4.5 storage-overhead analysis lists exactly these
    fields: two bytes of operation type, four bits of operand location hint,
    element sizes, and the vector length.
    """

    op_class: OpClass
    latency_class: LatencyClass
    element_bits: int
    vector_length: int
    operand_bytes: int
    loop: str = ""
    partially_vectorized: bool = False


@dataclass
class VectorInstruction:
    """One SIMD instruction in the optimized IR."""

    uid: int
    op: OpType
    dest: Optional[ArrayRef]
    sources: Tuple[Operand, ...]
    vector_length: int = DEFAULT_VECTOR_WIDTH
    element_bits: int = DEFAULT_ELEMENT_BITS
    depends_on: Tuple[int, ...] = ()
    metadata: Optional[InstructionMetadata] = None

    def __post_init__(self) -> None:
        if self.vector_length <= 0:
            raise SimulationError("vector length must be positive")
        if self.element_bits not in (8, 16, 32, 64):
            raise SimulationError(
                f"unsupported element width {self.element_bits}")
        # Operands and widths are fixed at construction, so the derived
        # operand size and source-reference list are materialized once
        # (the offloader reads both on every feature collection).
        self.size_bytes: int = self.vector_length * self.element_bits // 8
        self.array_sources: List[ArrayRef] = [
            s for s in self.sources if isinstance(s, ArrayRef)]
        if self.metadata is None:
            self.metadata = InstructionMetadata(
                op_class=OpClass.of(self.op),
                latency_class=LatencyClass.of(self.op),
                element_bits=self.element_bits,
                vector_length=self.vector_length,
                operand_bytes=self.size_bytes,
            )

    @property
    def is_vector(self) -> bool:
        return self.op not in (OpType.SCALAR, OpType.BRANCH, OpType.CALL)


class VectorProgram:
    """The optimized IR for one application: arrays plus instructions."""

    def __init__(self, name: str,
                 arrays: Iterable[ArraySpec] = ()) -> None:
        self.name = name
        self.arrays: Dict[str, ArraySpec] = {a.name: a for a in arrays}
        self.instructions: List[VectorInstruction] = []
        #: Encoded-binary cache maintained by the binary encoder; any
        #: mutation of the program invalidates it.
        self._encoded_binary = None
        #: Canonical instance per distinct operand reference.  Interning at
        #: build time turns the layout cache's equality probes (one per
        #: operand per offload) into pure identity hits.
        self._ref_intern: Dict[ArrayRef, ArrayRef] = {}
        #: Wave-plan cache maintained by the batched offload engine's
        #: dependency slicer (:mod:`repro.core.compiler.waves`): one
        #: ``(key, plan)`` entry, invalidated on any program mutation.
        #: Array placement is deterministic per program, so the plan is
        #: reusable across every run of the same compiled program.
        self._wave_plan: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[VectorInstruction]:
        return iter(self.instructions)

    # -- Construction -----------------------------------------------------------

    def declare_array(self, spec: ArraySpec) -> ArraySpec:
        self.arrays[spec.name] = spec
        self._encoded_binary = None
        self._wave_plan = None
        return spec

    def add(self, instruction: VectorInstruction) -> VectorInstruction:
        for ref in instruction.array_sources + (
                [instruction.dest] if instruction.dest else []):
            if ref.array not in self.arrays:
                raise SimulationError(
                    f"instruction {instruction.uid} references undeclared "
                    f"array '{ref.array}'")
        intern = self._ref_intern.setdefault
        if instruction.dest is not None:
            instruction.dest = intern(instruction.dest, instruction.dest)
        instruction.sources = tuple(
            intern(s, s) if s.__class__ is ArrayRef else s
            for s in instruction.sources)
        instruction.array_sources = [
            s for s in instruction.sources if s.__class__ is ArrayRef]
        self.instructions.append(instruction)
        self._encoded_binary = None
        self._wave_plan = None
        return instruction

    # -- Queries ------------------------------------------------------------------

    def instruction(self, uid: int) -> VectorInstruction:
        for instruction in self.instructions:
            if instruction.uid == uid:
                return instruction
        raise KeyError(uid)

    @property
    def vector_instructions(self) -> List[VectorInstruction]:
        return [i for i in self.instructions if i.is_vector]

    def total_data_bytes(self) -> int:
        return sum(spec.size_bytes for spec in self.arrays.values())

    def op_histogram(self) -> Dict[OpType, int]:
        histogram: Dict[OpType, int] = {}
        for instruction in self.instructions:
            histogram[instruction.op] = histogram.get(instruction.op, 0) + 1
        return histogram

    def latency_class_mix(self) -> Dict[LatencyClass, float]:
        """Fraction of instructions in each latency class (Table 3)."""
        if not self.instructions:
            return {cls: 0.0 for cls in LatencyClass}
        counts = {cls: 0 for cls in LatencyClass}
        for instruction in self.instructions:
            counts[LatencyClass.of(instruction.op)] += 1
        total = len(self.instructions)
        return {cls: counts[cls] / total for cls in LatencyClass}

    def validate(self) -> None:
        """Check dependency references and array bounds."""
        seen = set()
        for instruction in self.instructions:
            for dep in instruction.depends_on:
                if dep not in seen:
                    raise SimulationError(
                        f"instruction {instruction.uid} depends on {dep}, "
                        f"which does not precede it")
            refs = list(instruction.array_sources)
            if instruction.dest is not None:
                refs.append(instruction.dest)
            for ref in refs:
                spec = self.arrays[ref.array]
                if ref.end > spec.elements:
                    raise SimulationError(
                        f"instruction {instruction.uid} accesses "
                        f"{ref.array}[{ref.offset}:{ref.end}] beyond "
                        f"{spec.elements} elements")
            seen.add(instruction.uid)
