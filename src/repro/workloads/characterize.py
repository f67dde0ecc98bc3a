"""Workload characterization (Table 3).

Measures, for each workload, the three characteristics Table 3 reports:

* **Vectorizable code %** -- fraction of dynamic scalar operations that
  Conduit's compile-time pass turns into SIMD instructions.
* **Average reuse** -- average number of operations that consume the same
  data before it is replaced (source-operand page touches per distinct page
  read, bounded by overwrites).
* **Operation mix** -- fraction of low / medium / high latency operations
  among the vectorized instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.common import LatencyClass, OpType
from repro.core.compiler.ir import VectorProgram
from repro.core.layout import ArrayLayout
from repro.workloads.base import Workload


@dataclass
class WorkloadCharacteristics:
    """Measured Table 3 row for one workload."""

    workload: str
    vectorizable_fraction: float
    average_reuse: float
    low_latency_fraction: float
    medium_latency_fraction: float
    high_latency_fraction: float
    instructions: int
    footprint_bytes: int

    def as_row(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "vectorizable_%": round(100 * self.vectorizable_fraction, 1),
            "avg_reuse": round(self.average_reuse, 2),
            "low_%": round(100 * self.low_latency_fraction, 1),
            "medium_%": round(100 * self.medium_latency_fraction, 1),
            "high_%": round(100 * self.high_latency_fraction, 1),
            "instructions": self.instructions,
            "footprint_MiB": round(self.footprint_bytes / (1 << 20), 1),
        }


def measure_reuse(program: VectorProgram,
                  page_size_bytes: int = 4096) -> float:
    """Average source-operand reads per distinct page read."""
    layout = ArrayLayout(page_size_bytes)
    layout.place_all(sorted(program.arrays.values(), key=lambda s: s.name))
    touches = 0
    distinct = set()
    for instruction in program.instructions:
        for ref in instruction.array_sources:
            pages = layout.pages_of(ref, instruction.element_bits)
            touches += len(pages)
            distinct.update(pages)
    if not distinct:
        return 0.0
    return touches / len(distinct)


def operation_mix(program: VectorProgram) -> Dict[LatencyClass, float]:
    """Latency-class mix over the vectorized (non-scalar) instructions."""
    counts = {cls: 0 for cls in LatencyClass}
    total = 0
    for instruction in program.instructions:
        if instruction.op in (OpType.SCALAR, OpType.BRANCH, OpType.CALL):
            continue
        counts[LatencyClass.of(instruction.op)] += 1
        total += 1
    if total == 0:
        return {cls: 0.0 for cls in LatencyClass}
    return {cls: counts[cls] / total for cls in LatencyClass}


def characterize(workload: Workload) -> WorkloadCharacteristics:
    """Measure the Table 3 characteristics of one workload."""
    program, report = workload.vector_program()
    mix = operation_mix(program)
    return WorkloadCharacteristics(
        workload=workload.name,
        vectorizable_fraction=report.vectorizable_fraction,
        average_reuse=measure_reuse(program),
        low_latency_fraction=mix[LatencyClass.LOW],
        medium_latency_fraction=mix[LatencyClass.MEDIUM],
        high_latency_fraction=mix[LatencyClass.HIGH],
        instructions=len(program),
        footprint_bytes=program.total_data_bytes(),
    )


def characterization_table(workloads: Sequence[Workload]
                           ) -> List[Dict[str, object]]:
    """Table 3: one row per workload, measured against the paper's values."""
    rows: List[Dict[str, object]] = []
    for workload in workloads:
        measured = characterize(workload)
        row = measured.as_row()
        row["paper_vectorizable_%"] = round(
            100 * workload.paper.vectorizable_fraction, 1)
        row["paper_avg_reuse"] = workload.paper.average_reuse
        rows.append(row)
    return rows
