"""Conduit compile-time preprocessing: loop IR, auto-vectorizer, binary."""

from repro.core.compiler.binary import (BinaryDecoder, BinaryEncoder,
                                        ConduitBinary, transfer_binary)
from repro.core.compiler.frontend import (Loop, ScalarProgram, ScalarSection,
                                          ScalarStatement)
from repro.core.compiler.ir import (ArrayRef, ArraySpec, Immediate,
                                    InstructionMetadata, VectorInstruction,
                                    VectorProgram, DEFAULT_ELEMENT_BITS,
                                    DEFAULT_VECTOR_WIDTH)
from repro.core.compiler.vectorizer import (AutoVectorizer, LoopRemark,
                                            VectorizationReport,
                                            VectorizerConfig)

__all__ = [
    "BinaryDecoder", "BinaryEncoder", "ConduitBinary",
    "transfer_binary", "Loop", "ScalarProgram",
    "ScalarSection", "ScalarStatement", "ArrayRef", "ArraySpec", "Immediate",
    "InstructionMetadata", "VectorInstruction", "VectorProgram",
    "DEFAULT_ELEMENT_BITS", "DEFAULT_VECTOR_WIDTH", "AutoVectorizer",
    "LoopRemark", "VectorizationReport", "VectorizerConfig",
]
