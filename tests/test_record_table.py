"""Tests of :class:`~repro.core.metrics.RecordTable`, the columnar store of a
run's instruction records.

The table must read like the list of :class:`InstructionRecord` it
replaces, and every metric that scans its columns must reproduce, bit for
bit, the same metric computed record by record from ``list(records)``.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from repro.common import OpType, Resource
from repro.core.metrics import (ExecutionBreakdown, ExecutionResult,
                                InstructionRecord, RecordTable)
from repro.energy.model import EnergyBreakdown
from repro.experiments import (ExperimentConfig, ExperimentRunner,
                               execute_run_spec)
from repro.workloads import Jacobi1DWorkload


def _record(uid: int, resource: Resource = Resource.ISP) -> InstructionRecord:
    return InstructionRecord(
        uid=uid, op=OpType.ADD, resource=resource, dispatch_ns=1.0 * uid,
        ready_ns=2.0 * uid, start_ns=3.0 * uid, end_ns=4.0 * uid + 0.5,
        compute_ns=0.25, data_movement_ns=0.125, overhead_ns=uid / 3.0)


def _hand_built(records) -> ExecutionResult:
    return ExecutionResult(
        workload="w", policy="p", total_time_ns=1.0, records=records,
        energy=EnergyBreakdown(compute_nj=1.0, data_movement_nj=1.0,
                               per_resource_nj={}, per_transfer_kind_nj={}),
        breakdown=ExecutionBreakdown())


class TestSequenceBehaviour:
    RECORDS = [_record(uid, resource) for uid, resource in enumerate(
        [Resource.ISP, Resource.PUD, Resource.ISP, Resource.IFP])]

    def test_list_built_result_is_normalized_to_a_table(self):
        result = _hand_built(list(self.RECORDS))
        assert type(result.records) is RecordTable
        assert result.records.uid == array("q", [0, 1, 2, 3])
        assert _hand_built([]).records == RecordTable.from_rows([])

    def test_reads_like_a_list_of_records(self):
        table = _hand_built(list(self.RECORDS)).records
        assert len(table) == 4 and bool(table)
        assert list(table) == self.RECORDS
        assert table[1] == self.RECORDS[1]
        assert table[-1] == self.RECORDS[-1]
        with pytest.raises(IndexError):
            table[4]
        assert type(table[1:3]) is RecordTable
        assert list(table[1:3]) == self.RECORDS[1:3]
        assert list(table[::-2]) == self.RECORDS[::-2]
        assert table == self.RECORDS and self.RECORDS == table
        assert table != self.RECORDS[:3]
        assert table == RecordTable.from_records(self.RECORDS)
        assert table != table[:3]
        assert not RecordTable.from_rows([])

    def test_constructor_rejects_ragged_or_mistyped_columns(self):
        columns = list(RecordTable.from_records(self.RECORDS).columns())
        ragged = columns[:3] + [columns[3][:2]] + columns[4:]
        with pytest.raises(ValueError, match="dispatch_ns"):
            RecordTable(*ragged)
        with pytest.raises(ValueError, match="columns"):
            RecordTable(*columns[:-1])
        with pytest.raises(TypeError, match="uid"):
            RecordTable(list(columns[0]), *columns[1:])


def _reference(records):
    """The record-at-a-time computation the columns replaced."""
    latencies = np.array([record.latency_ns for record in records])
    counts = {}
    for record in records:
        counts[record.resource] = counts.get(record.resource, 0) + 1
    overheads = [record.overhead_ns for record in records]
    return {
        "p99": float(np.percentile(latencies, 99.0)),
        "p9999": float(np.percentile(latencies, 99.99)),
        "mean": float(np.mean([record.latency_ns for record in records])),
        "fractions": [(resource, (count / len(records)).hex())
                      for resource, count in counts.items()],
        "overhead_avg": sum(overheads) / len(overheads),
        "overhead_max": max(overheads),
        "compute": sum(record.compute_ns for record in records),
    }


@pytest.mark.parametrize("policy", ["Conduit", "CPU"])
def test_column_metrics_match_the_record_reference(policy):
    config = ExperimentConfig(workload_scale=0.1)
    result = execute_run_spec(ExperimentRunner(config).spec_for(
        Jacobi1DWorkload(scale=0.1), policy))
    reference = _reference(list(result.records))
    measured = {
        "p99": result.p99_latency_ns,
        "p9999": result.p9999_latency_ns,
        "mean": result.mean_latency_ns(),
        "fractions": [(resource, value.hex()) for resource, value
                      in result.resource_fractions().items()],
        "overhead_avg": result.offload_overhead_avg_ns,
        "overhead_max": result.offload_overhead_max_ns,
        "compute": result.breakdown.compute_ns,
    }
    for name, value in reference.items():
        if isinstance(value, float):
            assert measured[name].hex() == value.hex(), name
        else:
            assert measured[name] == value, name
    assert len(result.records) > 100
