"""Tests for the SSD-internal DRAM model and PuD-SSD compute."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import KIB, OpType, Resource, SimulationError
from repro.dram.bank import DRAMBank
from repro.dram.config import DRAMConfig
from repro.dram.dram import DRAMDevice
from repro.dram.pud import PUD_SUPPORTED_OPS, PuDBackend


def small_dram() -> DRAMConfig:
    return DRAMConfig(capacity_bytes=64 * 1024 * 1024)


class TestDRAMBank:
    def test_row_hit_is_faster_than_miss(self):
        config = small_dram()
        bank = DRAMBank(0, config)
        miss_done = bank.access(0.0, row=5)
        hit_done = bank.access(miss_done, row=5)
        assert (hit_done - miss_done) < miss_done

    def test_row_conflict_adds_precharge(self):
        config = small_dram()
        bank = DRAMBank(0, config)
        first = bank.access(0.0, row=1)
        second = bank.access(first, row=2)
        assert (second - first) >= config.t_rp_ns + config.t_rcd_ns

    def test_statistics(self):
        bank = DRAMBank(0, small_dram())
        bank.access(0.0, 1)
        bank.access(100.0, 1)
        bank.access(200.0, 2)
        assert bank.stats.row_hits == 1
        assert bank.stats.row_misses == 2

    def test_out_of_range_row_raises(self):
        with pytest.raises(SimulationError):
            DRAMBank(0, small_dram()).access(0.0, 10 ** 9)

    def test_bulk_bitwise_operation_charges_tbbop(self):
        config = small_dram()
        bank = DRAMBank(0, config)
        done = bank.bulk_bitwise_operation(0.0, steps=4)
        assert done == pytest.approx(4 * config.bbop_latency_ns)
        assert bank.stats.bbop_activations == 4


class TestDRAMDevice:
    def test_reads_and_writes_accumulate(self):
        dram = DRAMDevice(small_dram())
        read_end = dram.read(0.0, 0, 4096)
        write_end = dram.write(0.0, 8192, 4096)
        # Both accesses stream over the one DRAM bus, so they serialize.
        assert read_end >= dram.transfer_time(4096)
        assert write_end >= read_end + dram.transfer_time(4096)
        assert dram.bytes_read == 4096
        assert dram.bytes_written == 4096

    def test_bank_interleaving(self):
        dram = DRAMDevice(small_dram())
        banks = {dram.bank_of(row * dram.config.row_size_bytes)
                 for row in range(dram.config.banks)}
        assert len(banks) == dram.config.banks

    def test_out_of_range_access_raises(self):
        dram = DRAMDevice(small_dram())
        with pytest.raises(SimulationError):
            dram.read(0.0, dram.config.capacity_bytes, 4096)

    def test_transfer_time_matches_bandwidth(self):
        dram = DRAMDevice(small_dram())
        size = 1 << 20
        assert dram.transfer_time(size) == pytest.approx(
            size / dram.config.bandwidth_bytes_per_ns)


class TestPuDUnit:
    def unit(self) -> PuDBackend:
        return PuDBackend(Resource.PUD, DRAMDevice(small_dram()))

    def test_supported_operations(self):
        unit = self.unit()
        assert unit.supports(OpType.AND)
        assert unit.supports(OpType.MUL)
        assert not unit.supports(OpType.DIV)
        assert not unit.supports(OpType.GATHER)
        assert len(PUD_SUPPORTED_OPS) >= 16

    def test_bitwise_is_one_step(self):
        unit = self.unit()
        assert unit.steps_for(OpType.AND, 8) == 1

    def test_addition_steps_scale_with_element_width(self):
        unit = self.unit()
        assert unit.steps_for(OpType.ADD, 16) > unit.steps_for(OpType.ADD, 8)

    def test_multiplication_is_much_slower_than_addition(self):
        unit = self.unit()
        add = unit.operation_latency(OpType.ADD, 16 * KIB, 8)
        mul = unit.operation_latency(OpType.MUL, 16 * KIB, 8)
        assert mul > 3 * add

    def test_latency_uses_bank_parallelism(self):
        unit = self.unit()
        one_row = unit.operation_latency(OpType.AND, unit.row_bytes, 8)
        eight_rows = unit.operation_latency(OpType.AND, 8 * unit.row_bytes, 8)
        # Eight rows fit in the eight banks -> same wall-clock latency.
        assert eight_rows == pytest.approx(one_row)
        nine_rows = unit.operation_latency(OpType.AND, 9 * unit.row_bytes, 8)
        assert nine_rows > eight_rows

    def test_unsupported_operation_raises(self):
        with pytest.raises(SimulationError):
            self.unit().steps_for(OpType.GATHER, 8)

    def test_execute_accumulates_energy_and_busy_time(self):
        # Each row runs its bbop steps on its bank; on idle banks the
        # busiest one finishes exactly at the estimated latency.
        unit = self.unit()
        size = 16 * KIB
        unit.execute(0.0, OpType.XOR, size, 8)
        banks = unit.dram.banks
        rows = size // unit.row_bytes
        assert (sum(bank.stats.bbop_activations for bank in banks) ==
                rows * unit.steps_for(OpType.XOR, 8))
        assert (max(bank.busy_until for bank in banks) ==
                pytest.approx(unit.operation_latency(OpType.XOR, size, 8)))
        assert unit.operation_energy(OpType.XOR, size, 8) > 0

    @given(st.sampled_from(sorted(PUD_SUPPORTED_OPS, key=lambda o: o.value)),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_latency_monotonic_in_size(self, op, kib):
        unit = self.unit()
        small = unit.operation_latency(op, kib * KIB, 8)
        large = unit.operation_latency(op, 4 * kib * KIB, 8)
        assert large >= small
