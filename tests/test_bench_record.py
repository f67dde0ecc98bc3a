"""Schema check for the tracked ``BENCH_vectorized.json`` perf record.

The record is *tracked* in git yet overwritten by every run of the
``slow``-marked
``benchmarks/test_bench_sim_throughput.py::test_bench_vectorized_engine_record``,
which historically meant a checkout could carry numbers from an unknown
machine at an unknown scale.  Since schema version 2 every entry is
stamped with ``bench_scale``, ``host`` and ``recorded_unix`` metadata;
this test pins that schema so a stale-era entry (or a benchmark edit
that forgets to bump the version) fails the tier-1 suite loudly instead
of being silently misread.

The version literal is deliberately duplicated here rather than imported
from ``benchmarks/`` -- the benchmark module needs pytest-benchmark
fixtures and its own conftest, and the duplication is the point: writer
and checker must agree *in git*, not by definition.
"""

from __future__ import annotations

import json
import math
import os

#: Must match BENCH_RECORD_SCHEMA_VERSION in
#: benchmarks/test_bench_sim_throughput.py.  Bump both together.
EXPECTED_SCHEMA_VERSION = 4

RECORD_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_vectorized.json")

#: Required top-level fields and the types a well-formed entry carries.
REQUIRED_FIELDS = {
    "schema_version": int,
    "bench_scale": (int, float),
    "host": dict,
    "recorded_unix": (int, float),
    "sweep_pairs": int,
    "default_sweep_s": (int, float),
    "reference_offload_sweep_s": (int, float),
    "batched_over_reference_speedup": (int, float),
    "pr6_landing_vs_pr5": dict,
    "pr8_landing_vs_reference": dict,
}

REQUIRED_HOST_FIELDS = {
    "platform": str,
    "machine": str,
    "python": str,
    "usable_cpus": int,
}


def _load_record():
    with open(RECORD_PATH) as handle:
        return json.load(handle)


def test_record_exists_and_is_json():
    record = _load_record()
    assert isinstance(record, dict)


def test_record_schema_version_is_current():
    record = _load_record()
    assert record.get("schema_version") == EXPECTED_SCHEMA_VERSION, (
        f"BENCH_vectorized.json carries schema version "
        f"{record.get('schema_version')!r}, expected "
        f"{EXPECTED_SCHEMA_VERSION}; regenerate it with\n"
        "  PYTHONPATH=src python -m pytest -m slow "
        "benchmarks/test_bench_sim_throughput.py::"
        "test_bench_vectorized_engine_record")


def test_record_required_fields_and_types():
    record = _load_record()
    for field, types in REQUIRED_FIELDS.items():
        assert field in record, f"record missing required field {field!r}"
        assert isinstance(record[field], types), (
            f"record field {field!r} has type "
            f"{type(record[field]).__name__}, expected {types}")
    for field, types in REQUIRED_HOST_FIELDS.items():
        assert field in record["host"], (
            f"record host metadata missing {field!r}")
        assert isinstance(record["host"][field], types), (
            f"host field {field!r} has type "
            f"{type(record['host'][field]).__name__}, expected {types}")


def test_record_values_are_sane():
    """The numbers a regenerated entry must always satisfy."""
    record = _load_record()
    assert 0.0 < record["bench_scale"] <= 1.0
    assert record["sweep_pairs"] > 0
    assert record["default_sweep_s"] > 0.0
    assert record["reference_offload_sweep_s"] > 0.0
    assert math.isfinite(record["batched_over_reference_speedup"])
    assert record["batched_over_reference_speedup"] > 0.0
    # Stamped after 2026-01-01 (the schema-2 era began mid-2026).
    assert record["recorded_unix"] > 1767225600
    landing = record["pr6_landing_vs_pr5"]
    assert landing["speedup_best_vs_best"] > 1.0
    pr8 = record["pr8_landing_vs_reference"]
    # The PR 8 anchor records honest numbers against an explicit target;
    # both fields must be present even (especially) when the target was
    # missed, so the trajectory stays interpretable.
    assert pr8["speedup_best_vs_best"] > 0.0
    assert pr8["target_speedup"] >= 1.0
    assert isinstance(pr8["target_met"], bool)
