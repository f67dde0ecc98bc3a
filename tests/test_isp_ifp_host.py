"""Tests for the ISP, IFP and host compute models."""

import pytest

from repro.common import KIB, OpType, Resource, SimulationError
from repro.ifp.aresflash import AresFlashUnit
from repro.ifp.flashcosmos import FlashCosmosUnit
from repro.ifp.isa import (ARES_FLASH_OPS, FLASH_COSMOS_OPS,
                           IFP_SUPPORTED_OPS, primitive)
from repro.isp.isa import cycles_per_beat, mnemonic


class TestISP:
    def test_supports_everything(self, platform):
        isp = platform.backends[Resource.ISP]
        for op in OpType:
            assert isp.supports(op)

    def test_latency_scales_with_size(self, platform):
        isp = platform.backends[Resource.ISP]
        assert (isp.operation_latency(OpType.ADD, 32 * KIB, 32) >
                isp.operation_latency(OpType.ADD, 16 * KIB, 32))

    def test_multiplication_slower_than_addition(self, platform):
        isp = platform.backends[Resource.ISP]
        assert (isp.operation_latency(OpType.MUL, 16 * KIB, 32) >
                isp.operation_latency(OpType.ADD, 16 * KIB, 32))

    def test_throughput_is_limited_by_narrow_simd(self, platform):
        # A 16 KiB ADD should take on the order of microseconds on the
        # controller core (the limitation Section 2.2 highlights), far more
        # than PuD-SSD's tens of bbop steps.
        isp = platform.backends[Resource.ISP]
        latency = isp.operation_latency(OpType.ADD, 16 * KIB, 8)
        assert latency > 5_000.0  # > 5 us

    def test_invalid_size_raises(self, platform):
        with pytest.raises(SimulationError):
            platform.backends[Resource.ISP].operation_latency(
                OpType.ADD, 0, 32)

    def test_every_op_has_a_mnemonic_and_cycles(self):
        for op in OpType:
            assert mnemonic(op)
            assert cycles_per_beat(op) > 0

    def test_execute_tracks_energy(self, platform):
        # Running an operation charges its energy point to the platform's
        # energy account.
        energy = platform.backends[Resource.ISP].operation_energy(
            OpType.XOR, 16 * KIB, 8)
        assert energy > 0
        before = platform.energy.compute_nj
        isp = platform.backends[Resource.ISP]
        isp.execute(0.0, OpType.XOR, 16 * KIB, 8)
        platform.energy.add_compute(
            Resource.ISP, isp.operation_energy(OpType.XOR, 16 * KIB, 8))
        assert platform.energy.compute_nj - before == pytest.approx(energy)


class TestFlashCosmos:
    def test_supported_set(self):
        unit = FlashCosmosUnit()
        for op in FLASH_COSMOS_OPS:
            assert unit.supports(op)
        assert not unit.supports(OpType.MUL)

    def test_and_up_to_48_operands_in_one_sensing(self):
        unit = FlashCosmosUnit()
        assert unit.sensing_rounds(OpType.AND, 48) == 1
        assert unit.sensing_rounds(OpType.AND, 49) == 2

    def test_or_limited_to_4_operands_per_sensing(self):
        unit = FlashCosmosUnit()
        assert unit.sensing_rounds(OpType.OR, 4) == 1
        assert unit.sensing_rounds(OpType.OR, 8) == 2

    def test_latency_dominated_by_sensing(self):
        unit = FlashCosmosUnit()
        operation = unit.operation(OpType.AND, 2)
        assert operation.latency_ns >= unit.nand.read_latency_ns

    def test_xor_slower_than_and(self):
        unit = FlashCosmosUnit()
        assert (unit.operation(OpType.XOR, 2).latency_ns >
                unit.operation(OpType.AND, 2).latency_ns)

    def test_unsupported_raises(self):
        with pytest.raises(SimulationError):
            FlashCosmosUnit().sensing_rounds(OpType.ADD, 2)


class TestAresFlash:
    def test_supports_arithmetic_only(self):
        unit = AresFlashUnit()
        for op in ARES_FLASH_OPS:
            assert unit.supports(op)
        assert not unit.supports(OpType.AND)

    def test_multiplication_requires_controller_transfers(self):
        unit = AresFlashUnit()
        add = unit.operation(OpType.ADD, element_bits=8)
        mul = unit.operation(OpType.MUL, element_bits=8)
        assert add.controller_transfers == 0
        assert mul.controller_transfers == 8
        assert mul.latency_ns > add.latency_ns

    def test_wider_elements_cost_more(self):
        unit = AresFlashUnit()
        assert (unit.operation(OpType.ADD, 16).latency_ns >
                unit.operation(OpType.ADD, 8).latency_ns)

    def test_invalid_width_raises(self):
        with pytest.raises(SimulationError):
            AresFlashUnit().operation(OpType.ADD, element_bits=0)


class TestIFPUnit:
    def test_nine_supported_operations(self):
        assert len(IFP_SUPPORTED_OPS) == 9
        for op in IFP_SUPPORTED_OPS:
            assert primitive(op)

    def test_die_parallelism_matches_geometry(self, platform):
        unit = platform.backends[Resource.IFP]
        assert unit.queue.parallelism == unit.die_parallelism
        assert unit.die_parallelism == (unit.nand.channels *
                                        unit.nand.dies_per_channel)

    def test_pages_beyond_die_count_serialize(self, platform):
        unit = platform.backends[Resource.IFP]
        one_wave = unit.operation_latency(
            OpType.AND, unit.die_parallelism * unit.page_bytes, 8)
        two_waves = unit.operation_latency(
            OpType.AND, 2 * unit.die_parallelism * unit.page_bytes, 8)
        assert two_waves == pytest.approx(2 * one_wave)

    def test_unsupported_operation_raises(self, platform):
        with pytest.raises(SimulationError):
            platform.backends[Resource.IFP].operation_latency(
                OpType.SELECT, 16 * KIB, 8)

    def test_execute_routes_to_correct_subunit(self, platform):
        # Bitwise operations are priced by Flash-Cosmos, arithmetic by
        # Ares-Flash (one page of two operands per die).
        unit = platform.backends[Resource.IFP]
        page = unit.page_bytes
        bitwise = unit.flash_cosmos.operation(OpType.AND, 2)
        arithmetic = unit.ares_flash.operation(OpType.ADD, 8)
        assert (unit.operation_latency(OpType.AND, page, 8) ==
                bitwise.latency_ns)
        assert unit.operation_energy(OpType.AND, page, 8) == bitwise.energy_nj
        assert (unit.operation_latency(OpType.ADD, page, 8) ==
                arithmetic.latency_ns)
        assert (unit.operation_energy(OpType.ADD, page, 8) ==
                arithmetic.energy_nj > 0)


class TestHostModels:
    def test_cpu_memory_bound_for_bulk_bitwise(self, platform):
        # The latency is the memory-streaming time (two sources plus one
        # destination over DDR4), not the SIMD compute time.
        cpu = platform.backends[Resource.HOST_CPU]
        size = 64 * KIB
        memory_ns = (cpu.config.memory_latency_ns +
                     3 * size / cpu.config.memory_bandwidth_gbps)
        assert (cpu.operation_latency(OpType.XOR, size, 8) ==
                pytest.approx(memory_ns))

    def test_cpu_latency_scales_with_size(self, platform):
        cpu = platform.backends[Resource.HOST_CPU]
        assert (cpu.operation_latency(OpType.ADD, 64 * KIB, 32) >
                cpu.operation_latency(OpType.ADD, 16 * KIB, 32))

    def test_cpu_invalid_size_raises(self, platform):
        with pytest.raises(SimulationError):
            platform.backends[Resource.HOST_CPU].operation_latency(
                OpType.ADD, 0, 32)

    def test_gpu_faster_than_cpu_for_data_parallel_ops(self, platform):
        cpu = platform.backends[Resource.HOST_CPU]
        gpu = platform.backends[Resource.HOST_GPU]
        size = 1 << 20
        assert (gpu.operation_latency(OpType.MUL, size, 8) <
                cpu.operation_latency(OpType.MUL, size, 8))

    def test_gpu_scalar_code_does_not_parallelize(self, platform):
        gpu = platform.backends[Resource.HOST_GPU]
        scalar = gpu.operation_latency(OpType.SCALAR, 16 * KIB, 32)
        vector = gpu.operation_latency(OpType.ADD, 16 * KIB, 32)
        assert scalar > vector

    def test_gpu_energy_reflects_high_power(self, platform):
        gpu = platform.backends[Resource.HOST_GPU]
        latency = gpu.operation_latency(OpType.MUL, 1 << 20, 8)
        assert (gpu.operation_energy(OpType.MUL, 1 << 20, 8) ==
                pytest.approx(latency * gpu.config.active_power_w))
