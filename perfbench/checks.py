"""Output checks and the simulated-result digest.

Every run a pass produces is checked against four invariants of the
simulator's public result objects:

* the record count equals the compiled program's instruction count;
* every record is causal: dispatch <= ready <= start <= end;
* every dependency ends no later than its consumer starts;
* per-resource compute energy and per-kind movement energy each sum to
  their totals.

``sim_digest`` hashes every run's simulated time, energy and record count
(plus any extra simulated output, such as the serve tables), so two runs
of the same inputs -- traced or not, on two commits -- can be compared
exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, Iterable, List

from repro.core.compiler.ir import VectorProgram
from repro.core.metrics import ExecutionResult


def check_run(result: ExecutionResult, program: VectorProgram) -> List[str]:
    """Every invariant the run breaks, as messages (empty if it holds)."""
    problems: List[str] = []
    records = result.records
    if len(records) != len(program.instructions):
        problems.append(f"{len(records)} records for "
                        f"{len(program.instructions)} instructions")
    start_of: Dict[int, float] = {}
    end_of: Dict[int, float] = {}
    for record in records:
        if not (record.dispatch_ns <= record.ready_ns <= record.start_ns
                <= record.end_ns):
            problems.append(
                f"record {record.uid} not causal: dispatch "
                f"{record.dispatch_ns} ready {record.ready_ns} start "
                f"{record.start_ns} end {record.end_ns}")
            break
        start_of[record.uid] = record.start_ns
        end_of[record.uid] = record.end_ns
    for instruction in program.instructions:
        start = start_of.get(instruction.uid)
        if start is None:
            continue
        late = [dep for dep in instruction.depends_on
                if end_of.get(dep, -math.inf) > start]
        if late:
            problems.append(f"instruction {instruction.uid} starts at "
                            f"{start} before dependency {late[0]} ends")
            break
    energy = result.energy
    for label, parts, total in (
            ("compute", energy.per_resource_nj, energy.compute_nj),
            ("movement", energy.per_transfer_kind_nj,
             energy.data_movement_nj)):
        summed = sum(parts.values())
        if not math.isclose(summed, total, rel_tol=1e-9, abs_tol=1e-6):
            problems.append(f"{label} energy parts sum to {summed}, "
                            f"total is {total}")
    return problems


def sim_digest(runs: Iterable, extra: object = None) -> str:
    """Hash of every run's simulated time, energy and record count."""
    lines = sorted(f"{workload}|{policy}|{result.total_time_ns!r}|"
                   f"{result.total_energy_nj!r}|{len(result.records)}"
                   for workload, policy, result in runs)
    if extra is not None:
        lines.append(json.dumps(extra, sort_keys=True, default=repr))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
