"""Conduit binary packaging and transfer.

The optimized IR is compiled to an ARM binary on the host and shipped to the
SSD through the existing NVMe firmware-update admin commands, extended with
a flag that marks the payload as a Conduit binary (Section 4.3.1 / 4.4).

This module packages a :class:`VectorProgram` into a byte-level binary image
(a deterministic, self-describing encoding that round-trips) and drives the
``fw-download`` / ``fw-commit`` transfer of that image's real size against
an :class:`NVMeInterface`.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common import OpType, SimulationError
from repro.core.compiler.ir import (ArrayRef, ArraySpec, Immediate,
                                     VectorInstruction, VectorProgram)
from repro.ssd.nvme import NVMeInterface

_MAGIC = b"CNDT"
_VERSION = 1
#: Fixed encoded size of one instruction record: uid (4), op (2), element
#: bits (1), operand count (1), vector length (4), dependency count (2).
_INSTRUCTION_HEADER_BYTES = 14
#: Encoded size of one operand reference (array id 2, offset 4, length 4).
_OPERAND_BYTES = 10
_DEPENDENCY_BYTES = 4


@dataclass
class ConduitBinary:
    """An encoded Conduit binary image."""

    program_name: str
    image: bytes
    instruction_count: int

    @property
    def size_bytes(self) -> int:
        return len(self.image)

    @property
    def checksum(self) -> int:
        return zlib.crc32(self.image)


class BinaryEncoder:
    """Encodes a :class:`VectorProgram` into a Conduit binary image."""

    def encode(self, program: VectorProgram) -> ConduitBinary:
        # The encoding is deterministic and depends only on the program
        # contents, so one image per program object suffices; the program
        # invalidates the cache on mutation.
        cached = getattr(program, "_encoded_binary", None)
        if cached is not None:
            return cached
        binary = self._encode(program)
        program._encoded_binary = binary
        return binary

    def _encode(self, program: VectorProgram) -> ConduitBinary:
        arrays = sorted(program.arrays.values(), key=lambda a: a.name)
        array_ids = {spec.name: index for index, spec in enumerate(arrays)}
        header = {
            "name": program.name,
            "version": _VERSION,
            "arrays": [[a.name, a.elements, a.element_bits] for a in arrays],
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        ops = sorted(OpType, key=lambda o: o.value)
        op_ids = {op: index for index, op in enumerate(ops)}
        body = bytearray()
        for instruction in program.instructions:
            body.extend(self._encode_instruction(instruction, array_ids,
                                                 op_ids))
        image = bytearray()
        image.extend(_MAGIC)
        image.extend(struct.pack("<I", len(header_bytes)))
        image.extend(header_bytes)
        image.extend(struct.pack("<I", len(program.instructions)))
        image.extend(body)
        return ConduitBinary(program_name=program.name, image=bytes(image),
                             instruction_count=len(program.instructions))

    @staticmethod
    def _encode_instruction(instruction: VectorInstruction,
                            array_ids: Dict[str, int],
                            op_ids: Dict[OpType, int]) -> bytes:
        operands: List[Tuple[int, int, int]] = []
        refs = list(instruction.array_sources)
        if instruction.dest is not None:
            refs = [instruction.dest] + refs
        for ref in refs:
            operands.append((array_ids[ref.array], ref.offset, ref.length))
        record = bytearray()
        record.extend(struct.pack(
            "<IHBBIH", instruction.uid, op_ids[instruction.op],
            instruction.element_bits, len(operands),
            instruction.vector_length, len(instruction.depends_on)))
        for array_id, offset, length in operands:
            record.extend(struct.pack("<HII", array_id, offset, length))
        for dep in instruction.depends_on:
            record.extend(struct.pack("<I", dep))
        return bytes(record)


class BinaryDecoder:
    """Decodes a Conduit binary image back into a :class:`VectorProgram`.

    The simulator never decodes what it ships; this is the round-trip
    oracle the tests check the encoding against.
    """

    def decode(self, binary: ConduitBinary) -> VectorProgram:
        image = binary.image
        if image[:4] != _MAGIC:
            raise SimulationError("not a Conduit binary (bad magic)")
        cursor = 4
        (header_len,) = struct.unpack_from("<I", image, cursor)
        cursor += 4
        header = json.loads(image[cursor:cursor + header_len].decode("utf-8"))
        cursor += header_len
        if header.get("version") != _VERSION:
            raise SimulationError("unsupported Conduit binary version")
        program = VectorProgram(header["name"])
        arrays: List[ArraySpec] = []
        for name, elements, element_bits in header["arrays"]:
            spec = ArraySpec(name=name, elements=elements,
                             element_bits=element_bits)
            arrays.append(spec)
            program.declare_array(spec)
        (instruction_count,) = struct.unpack_from("<I", image, cursor)
        cursor += 4
        ops = sorted(OpType, key=lambda o: o.value)
        for _ in range(instruction_count):
            cursor = self._decode_instruction(program, image, cursor, arrays,
                                              ops)
        return program

    @staticmethod
    def _decode_instruction(program: VectorProgram, image: bytes,
                            cursor: int, arrays: List[ArraySpec],
                            ops: List[OpType]) -> int:
        (uid, op_id, element_bits, operand_count, vector_length,
         dep_count) = struct.unpack_from("<IHBBIH", image, cursor)
        cursor += _INSTRUCTION_HEADER_BYTES
        refs: List[ArrayRef] = []
        for _ in range(operand_count):
            array_id, offset, length = struct.unpack_from("<HII", image,
                                                          cursor)
            cursor += _OPERAND_BYTES
            refs.append(ArrayRef(arrays[array_id].name, offset, length))
        depends: List[int] = []
        for _ in range(dep_count):
            (dep,) = struct.unpack_from("<I", image, cursor)
            cursor += _DEPENDENCY_BYTES
            depends.append(dep)
        dest = refs[0] if refs else None
        sources = tuple(refs[1:]) if len(refs) > 1 else ()
        program.add(VectorInstruction(
            uid=uid, op=ops[op_id], dest=dest, sources=sources,
            vector_length=vector_length, element_bits=element_bits,
            depends_on=tuple(depends)))
        return cursor


def transfer_binary(nvme: NVMeInterface, binary: ConduitBinary,
                    now: float = 0.0) -> float:
    """Ship a Conduit binary to the SSD via fw-download / fw-commit.

    Returns the virtual time at which the commit completes.
    """
    return nvme.download_binary(now, binary.size_bytes)
