"""Trace-driven workloads: lowering block traces into the loop IR.

A parsed trace becomes an ordinary :class:`~repro.workloads.base.Workload`
so it flows through the compiler, offload, movement, contention and
lifetime layers completely unchanged.  The lowering mirrors what the
access pattern means to a near-data platform:

* **Contiguous-LBA runs** (consecutive requests extending each other on
  the same device in the same direction) are streaming transfers -- each
  run of at least :data:`VECTOR_RUN_SECTORS` sectors lowers to a counted
  loop over the run's bytes (reads scan/checksum the device range into a
  host buffer, writes add the buffer back), which the vectorizer turns
  into vectorizable sections exactly like the hand-built kernels' loops.
* **Interleaved small accesses** are request-handling control flow: they
  aggregate into one non-vectorizable scalar section whose dynamic
  operation count is proportional to the bytes they touch.

``scale`` shrinks run lengths and the device address span together (via
the shared ``_scaled`` helper), so the same trace sweeps at figure scales
-- with the same explicit element floor, and the same
:class:`~repro.workloads.base.ScaleFloorWarning`, as every other workload.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common import OpType, SimulationError
from repro.core.compiler.frontend import (STATIC_OPS_PER_STATEMENT, Loop,
                                          ScalarProgram, ScalarSection,
                                          ScalarStatement)
from repro.workloads.base import Workload, WorkloadCategory
from repro.workloads.traces.parse import (TraceRow, load_mqsim_trace,
                                          trace_fingerprint)

#: Contiguous runs of at least this many sectors (32 KiB) lower to counted
#: loops; anything shorter counts as an interleaved small access.
VECTOR_RUN_SECTORS = 64

#: Dynamic scalar operations charged per byte of small-access traffic
#: (request handling touches data far more lightly than the streaming
#: loops, which execute one operation per element).
SMALL_ACCESS_OPS_PER_BYTE = 1.0 / 16.0

#: Registry name of the checked-in fixture trace (see ``fixtures/``).
MQSIM_MINI_NAME = "mqsim-mini"


def fixture_trace_path() -> str:
    """Path of the checked-in mini MQSim fixture trace."""
    return os.path.join(os.path.dirname(__file__), "fixtures",
                        "mini_mqsim.trace")


def coalesce_runs(rows: Sequence[TraceRow]) -> List[List[TraceRow]]:
    """Group rows into contiguous-LBA runs, preserving arrival order.

    A row extends the current run when it targets the same device in the
    same direction and starts exactly where the previous request ended;
    anything else begins a new run.
    """
    runs: List[List[TraceRow]] = []
    for row in rows:
        if runs:
            last = runs[-1][-1]
            if (row.device == last.device and row.is_write == last.is_write
                    and row.lba == last.end_lba):
                runs[-1].append(row)
                continue
        runs.append([row])
    return runs


def lower_rows(name: str, rows: Sequence[TraceRow],
               workload: Workload) -> ScalarProgram:
    """Lower parsed trace rows into a scalar loop program.

    ``workload`` supplies the scale (via ``_scaled``); the program's
    arrays cover each device's touched LBA span, runs become loops and
    small accesses one aggregated scalar section (see module docstring).
    """
    program = ScalarProgram(name)
    spans: Dict[int, Tuple[int, int]] = {}
    for row in rows:
        low, high = spans.get(row.device, (row.lba, row.end_lba))
        spans[row.device] = (min(low, row.lba), max(high, row.end_lba))
    for device in sorted(spans):
        low, high = spans[device]
        span_bytes = (high - low) * 512
        program.declare_array(f"dev{device}_space",
                              workload._scaled(span_bytes), element_bits=8)

    runs = coalesce_runs(rows)
    vector_runs = [run for run in runs
                   if sum(row.sectors for row in run) >= VECTOR_RUN_SECTORS]
    max_run_bytes = max((sum(row.size_bytes for row in run)
                         for run in vector_runs), default=4096)
    program.declare_array("host_buffer", workload._scaled(max_run_bytes),
                          element_bits=8)

    for index, run in enumerate(vector_runs):
        run_bytes = sum(row.size_bytes for row in run)
        device_array = f"dev{run[0].device}_space"
        if run[0].is_write:
            # Streaming write: merge the staged buffer into the device
            # range (ADD models the read-modify-write of a filesystem or
            # KV-store flush better than a pure store would).
            body = [ScalarStatement(op=OpType.ADD, dest=device_array,
                                    sources=("host_buffer",))]
            kind = "write"
        else:
            # Streaming read: scan/checksum the device range out into the
            # host buffer (XOR is the canonical bulk-bitwise scan).
            body = [ScalarStatement(op=OpType.XOR, dest="host_buffer",
                                    sources=(device_array,),
                                    uses_immediate=True)]
            kind = "read"
        program.add_loop(Loop(name=f"run{index}_{kind}",
                              trip_count=workload._scaled(run_bytes),
                              body=body))

    small_bytes = sum(row.size_bytes for run in runs for row in run
                      if sum(r.sectors for r in run) < VECTOR_RUN_SECTORS)
    small_count = sum(len(run) for run in runs
                      if sum(r.sectors for r in run) < VECTOR_RUN_SECTORS)
    if small_count:
        operations = max(4096, int(workload._scaled(small_bytes)
                                   * SMALL_ACCESS_OPS_PER_BYTE))
        program.add_scalar_section(ScalarSection(
            name="interleaved_small_accesses", operation_count=operations,
            static_operations=small_count * STATIC_OPS_PER_STATEMENT))
    return program


class TraceWorkload(Workload):
    """A parsed MQSim block trace as a first-class workload."""

    name = "trace"
    category = WorkloadCategory.IO_INTENSIVE

    def __init__(self, rows: Sequence[TraceRow], *,
                 name: Optional[str] = None, scale: float = 1.0,
                 source: str = "<memory>") -> None:
        super().__init__(scale)
        if not rows:
            raise SimulationError(f"trace workload {name or self.name!r} "
                                  "needs at least one trace row")
        self.rows: Tuple[TraceRow, ...] = tuple(rows)
        #: ``cache_identity()``, hashed from the row tuple on first use.
        self._identity: Optional[Tuple[Tuple[str, str], ...]] = None
        if name is not None:
            self.name = name
        self.source = source

    @classmethod
    def from_file(cls, path: str, *, name: Optional[str] = None,
                  scale: float = 1.0) -> "TraceWorkload":
        """Parse an MQSim trace file into a workload (name: file stem)."""
        stem = os.path.splitext(os.path.basename(path))[0]
        return cls(load_mqsim_trace(path), name=name or stem, scale=scale,
                   source=path)

    def build_program(self) -> ScalarProgram:
        return lower_rows(self.name, self.rows, self)

    def cache_identity(self) -> Tuple[Tuple[str, str], ...]:
        # The rows are an immutable tuple, so one hash per instance holds
        # for its whole life (every spec and program lookup asks again).
        if self._identity is None:
            self._identity = (("trace", trace_fingerprint(self.rows)),)
        return self._identity

    def describe(self) -> Dict[str, object]:
        description = super().describe()
        description["source"] = self.source
        description["requests"] = len(self.rows)
        return description


def trace_workload_factory(path: str, *, name: Optional[str] = None):
    """A registry factory for one trace file, parsed eagerly once.

    Parsing at registration time (not per instantiation) pins the trace
    content: every rebuild -- including in parallel sweep workers --
    lowers exactly the rows that were registered, and the cache identity
    cannot drift if the file changes under a running sweep.
    """
    rows = load_mqsim_trace(path)
    workload_name = (name if name is not None
                     else os.path.splitext(os.path.basename(path))[0])

    def factory(scale: float = 1.0) -> TraceWorkload:
        return TraceWorkload(rows, name=workload_name, scale=scale,
                             source=path)

    factory.name = workload_name  # type: ignore[attr-defined]
    return factory


def register_trace_workload(path: str, *, name: Optional[str] = None,
                            overwrite: bool = False) -> str:
    """Parse and register a trace file; returns the registry name.

    The workload becomes sweepable everywhere a registry name is accepted
    (experiment axes, ``TenantSpec`` mixes, ``--trace`` on the CLI).
    """
    from repro.workloads import register_workload
    factory = trace_workload_factory(path, name=name)
    register_workload(factory.name, factory, overwrite=overwrite)
    return factory.name
