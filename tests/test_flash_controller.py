"""Tests for flash channels and controllers."""

import pytest

from repro.ssd.config import NANDConfig
from repro.ssd.flash_controller import FlashChannelSubsystem


def config() -> NANDConfig:
    return NANDConfig(channels=2, dies_per_channel=2, planes_per_die=1,
                      blocks_per_plane=8, pages_per_block=16)


class TestReadPath:
    def test_read_latency_includes_sense_and_transfer(self):
        subsystem = FlashChannelSubsystem(config())
        end = subsystem.read_page(0.0, channel=0, die=0)
        # The command and the page both crossed channel 0.
        busy = subsystem.channels.buses[0].busy_time
        assert busy > 0
        assert end > config().read_latency_ns + busy
        assert subsystem.dies[0].busy_time == config().read_latency_ns

    def test_reads_on_same_die_serialize(self):
        subsystem = FlashChannelSubsystem(config())
        first = subsystem.read_page(0.0, 0, 0)
        second = subsystem.read_page(0.0, 0, 0)
        # The second sense waits for the die, so it ends a tR later.
        assert second >= first + config().read_latency_ns

    def test_reads_on_different_channels_overlap(self):
        subsystem = FlashChannelSubsystem(config())
        first = subsystem.read_page(0.0, 0, 0)
        second = subsystem.read_page(0.0, 1, 0)
        # Channel-parallel reads should not be serialized die-to-die.
        assert second < first + config().read_latency_ns

    def test_invalid_channel_raises(self):
        subsystem = FlashChannelSubsystem(config())
        with pytest.raises(Exception):
            subsystem.read_page(0.0, channel=99, die=0)


class TestProgramErase:
    def test_program_latency_dominated_by_tprog(self):
        subsystem = FlashChannelSubsystem(config())
        assert (subsystem.program_page(0.0, 0, 0) >=
                config().program_latency_ns)

    def test_erase_latency(self):
        subsystem = FlashChannelSubsystem(config())
        assert subsystem.erase_block(0.0, 0, 1) >= config().erase_latency_ns


class TestInFlashOperation:
    def test_uncontended_estimates_are_consistent(self):
        subsystem = FlashChannelSubsystem(config())
        read_estimate = subsystem.uncontended_read_latency()
        end = subsystem.read_page(0.0, 0, 0)
        assert end == pytest.approx(read_estimate, rel=0.2)

    def test_channel_utilization_increases_with_traffic(self):
        subsystem = FlashChannelSubsystem(config())
        assert subsystem.channel_utilization(1000.0) == 0.0
        subsystem.read_page(0.0, 0, 0)
        assert subsystem.channel_utilization(1e5) > 0.0
