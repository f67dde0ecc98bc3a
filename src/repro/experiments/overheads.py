"""Section 4.5 -- storage and runtime overheads of Conduit.

Measures the metadata/translation-table storage footprint in SSD DRAM and
the per-instruction runtime overhead (feature collection plus instruction
transformation).  The paper reports a ~1.5 KiB translation table and an
average runtime overhead of 3.77 us (up to 33 us).

Registered as the ``overheads`` experiment (``python -m repro run
overheads``).  On grown platform variants the translation table covers the
grown roster, so the storage overhead is reported per variant.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.coherence import CoherenceEntry
from repro.core.offload.transform import InstructionTransformer
from repro.core.platform import SSDPlatform
from repro.experiments.registry import (ExperimentContext, ExperimentDef,
                                        per_platform, register_experiment)
from repro.workloads import AESWorkload


def _sections(ctx: ExperimentContext, platform_name, grid):
    transformer = InstructionTransformer(
        SSDPlatform(ctx.platforms[platform_name]))
    result = grid[(AESWorkload.name, "Conduit")]
    metrics = {
        "translation_table_bytes": float(transformer.table_bytes()),
        "coherence_metadata_bytes_per_page": float(
            CoherenceEntry.METADATA_BYTES),
        "avg_runtime_overhead_us": result.offload_overhead_avg_ns / 1000.0,
        "max_runtime_overhead_us": result.offload_overhead_max_ns / 1000.0,
        "paper_avg_runtime_overhead_us": 3.77,
        "paper_max_runtime_overhead_us": 33.0,
        "paper_translation_table_bytes": 1.5 * 1024,
    }
    return OrderedDict(overheads=[
        {"metric": key, "value": value} for key, value in metrics.items()])


OVERHEADS_DEF = register_experiment(ExperimentDef(
    name="overheads",
    title="Section 4.5 -- storage and runtime overheads of Conduit",
    description="Translation-table footprint plus per-instruction runtime "
                "overhead, measured on the AES workload.",
    policies=("Conduit",),
    workloads=(AESWorkload.name,),
    build=per_platform(_sections),
    paper_refs=("~1.5 KiB translation table",
                "runtime overhead avg 3.77 us, max 33 us"),
), overwrite=True)
