"""Shared fixtures for the test suite.

Tests run against reduced-geometry SSDs and small capacity windows so each
test finishes quickly while exercising the same code paths (including
capacity-pressure behaviour such as evictions and mapping-cache misses).
"""

from __future__ import annotations

import pytest

from repro.common import MIB, OpType
from repro.core.compiler.frontend import (Loop, ScalarProgram,
                                          ScalarStatement)
from repro.core.compiler.ir import ArrayRef, ArraySpec, VectorInstruction, \
    VectorProgram
from repro.core.compiler.vectorizer import AutoVectorizer, VectorizerConfig
from repro.core.platform import PlatformConfig, SSDPlatform
from repro.ssd.config import SSDConfig, small_ssd_config


@pytest.fixture
def small_ssd() -> SSDConfig:
    """A reduced-geometry SSD configuration."""
    return small_ssd_config()


@pytest.fixture
def platform_config(small_ssd: SSDConfig) -> PlatformConfig:
    """Platform with small capacity windows (forces realistic evictions)."""
    return PlatformConfig(ssd=small_ssd,
                          dram_compute_window_bytes=1 * MIB,
                          host_cache_bytes=1 * MIB)


@pytest.fixture
def platform(platform_config: PlatformConfig) -> SSDPlatform:
    return SSDPlatform(platform_config)


@pytest.fixture
def tiny_scalar_program() -> ScalarProgram:
    """A small, fully vectorizable two-statement loop program."""
    program = ScalarProgram("tiny")
    program.declare_array("a", 64 * 1024, element_bits=32)
    program.declare_array("b", 64 * 1024, element_bits=32)
    program.add_loop(Loop(
        name="main", trip_count=64 * 1024,
        body=[
            ScalarStatement(op=OpType.ADD, dest="b", sources=("a", "b")),
            ScalarStatement(op=OpType.XOR, dest="a", sources=("a", "b")),
        ],
        repetitions=2))
    return program


@pytest.fixture
def tiny_vector_program(tiny_scalar_program: ScalarProgram) -> VectorProgram:
    program, _ = AutoVectorizer(VectorizerConfig()).vectorize(
        tiny_scalar_program)
    return program


@pytest.fixture
def manual_vector_program() -> VectorProgram:
    """A hand-built three-instruction program with an explicit dependency."""
    program = VectorProgram("manual",
                            [ArraySpec("x", 16384, 32),
                             ArraySpec("y", 16384, 32)])
    program.add(VectorInstruction(
        uid=0, op=OpType.AND, dest=ArrayRef("y", 0, 4096),
        sources=(ArrayRef("x", 0, 4096), ArrayRef("y", 0, 4096))))
    program.add(VectorInstruction(
        uid=1, op=OpType.ADD, dest=ArrayRef("y", 4096, 4096),
        sources=(ArrayRef("x", 4096, 4096),)))
    program.add(VectorInstruction(
        uid=2, op=OpType.MUL, dest=ArrayRef("x", 0, 4096),
        sources=(ArrayRef("y", 0, 4096),), depends_on=(0,)))
    return program
