"""Instruction transformation unit.

After the offloader picks a target resource, Conduit translates the vector
instruction into the native ISA of that resource (Section 4.3.2):

* **ISP**: ARM M-Profile Vector Extension (MVE / Helium) instructions.
* **PuD-SSD**: the ``bbop_*`` ISA extensions of SIMDRAM / MIMDRAM / Proteus.
* **IFP**: Flash-Cosmos multi-wordline-sensing primitives and Ares-Flash's
  ``shift_and_add``.

The transformation is a lookup in a translation table stored in SSD DRAM
(~1.5 KiB, Section 4.5) costing ~300 ns per instruction, plus splitting the
compile-time vector width (4096 x 32-bit, one flash page) into the smaller
sub-operation widths the target resource supports (DRAM rows for PuD-SSD,
32-bit MVE beats batched into SRAM tiles for ISP).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common import OpType, Resource, ResourceLike, SimulationError
from repro.core.compiler.ir import VectorInstruction
from repro.core.platform import SSDPlatform
from repro.ifp.isa import primitive as ifp_primitive
from repro.isp.isa import mnemonic as isp_mnemonic

#: Lookup latency of the translation table held in SSD DRAM (Section 4.5).
TRANSLATION_LOOKUP_NS = 300.0
#: Bytes per translation-table entry (Section 4.5).
TRANSLATION_ENTRY_BYTES = 4


def pud_mnemonic(op: OpType) -> str:
    """SIMDRAM/MIMDRAM-style bbop instruction name."""
    return f"bbop_{op.value}"


#: Native mnemonic generators keyed by resource family.
_KIND_MNEMONIC = {
    Resource.ISP: isp_mnemonic,
    Resource.PUD: pud_mnemonic,
    Resource.IFP: ifp_primitive,
}


@dataclass(slots=True)
class TransformedInstruction:
    """The native-ISA form of one offloaded instruction."""

    uid: int
    resource: ResourceLike
    native_op: str
    sub_operations: int
    sub_operation_bytes: int
    lookup_latency_ns: float


class InstructionTransformer:
    """Translates vector instructions into per-backend native forms."""

    def __init__(self, platform: SSDPlatform) -> None:
        self.platform = platform
        self._table = self._build_table()
        # (op, size_bytes, resource) -> (native op, sub-ops, sub-bytes);
        # the translation is pure in these, so each shape resolves once.
        self._memo: Dict[Tuple[OpType, int, ResourceLike],
                         Tuple[str, int, int]] = {}

    # -- Translation table -----------------------------------------------------

    def _build_table(self) -> Dict[Tuple[OpType, ResourceLike], str]:
        """One native entry per (op, registered offload candidate).

        The mnemonic generator follows the backend's resource family (all
        ISP cores speak MVE, every PuD tier speaks ``bbop_*``), so
        registry-grown backends get translation entries without edits
        here.  ISP-family backends are the universal fallback and carry an
        entry for every operation; other families are gated on support.
        """
        table: Dict[Tuple[OpType, ResourceLike], str] = {}
        candidates = self.platform.backends.offload_candidates()
        for op in OpType:
            for resource in candidates:
                backend = self.platform.backends[resource]
                mnemonic = _KIND_MNEMONIC.get(backend.kind)
                if mnemonic is None:
                    continue
                if backend.kind is Resource.ISP or backend.supports(op):
                    table[(op, resource)] = mnemonic(op)
        return table

    def table_bytes(self) -> int:
        """Storage footprint of the translation table in SSD DRAM."""
        return len(self._table) * TRANSLATION_ENTRY_BYTES

    def native_op(self, op: OpType, resource: ResourceLike) -> str:
        key = (op, resource)
        if key not in self._table:
            raise SimulationError(
                f"{resource.value} has no native instruction for {op.value}")
        return self._table[key]

    # -- Vector-width splitting ---------------------------------------------------

    def sub_operation_bytes(self, resource: ResourceLike) -> int:
        """Largest chunk the target backend processes as one operation.

        Backends advertise their native granularity (DRAM rows for PuD
        tiers, flash pages for IFP); backends without one -- ISP cores,
        whose MVE beats are tiny -- receive SRAM-tile sized chunks of one
        flash page and loop over beats internally.
        """
        chunk = self.platform.backends[resource].native_chunk_bytes
        if chunk is None:
            return self.platform.page_size
        return chunk

    def split(self, instruction: VectorInstruction,
              resource: ResourceLike) -> Tuple[int, int]:
        """Return (sub_operations, bytes per sub-operation)."""
        chunk = self.sub_operation_bytes(resource)
        sub_operations = max(1, math.ceil(instruction.size_bytes / chunk))
        return sub_operations, min(chunk, instruction.size_bytes)

    # -- Transformation ---------------------------------------------------------------

    def transform(self, instruction: VectorInstruction,
                  resource: ResourceLike) -> TransformedInstruction:
        """Translate ``instruction`` for ``resource`` (charges lookup time)."""
        key = (instruction.op, instruction.size_bytes, resource)
        cached = self._memo.get(key)
        if cached is None:
            native = self.native_op(instruction.op, resource)
            sub_operations, sub_bytes = self.split(instruction, resource)
            cached = self._memo[key] = (native, sub_operations, sub_bytes)
        return TransformedInstruction(instruction.uid, resource, cached[0],
                                      cached[1], cached[2],
                                      TRANSLATION_LOOKUP_NS)
