"""Tests for the NVMe interface and the top-level SSD storage device."""

import pytest

from repro.common import SimulationError
from repro.ssd.config import SSDConfig, small_ssd_config
from repro.ssd.nvme import (AdminCommand, AdminOpcode, NVMeInterface,
                            SSDMode)
from repro.ssd.ssd import SSD


class TestNVMeInterface:
    def interface(self) -> NVMeInterface:
        return NVMeInterface(SSDConfig().host_interface)

    def test_host_transfer_latency_scales_with_size(self):
        nvme = self.interface()
        small = nvme.host_transfer(0.0, 4096, "ssd-to-host")
        large = nvme.host_transfer(small, 1 << 20, "ssd-to-host")
        assert large - small > small

    def test_invalid_direction_raises(self):
        with pytest.raises(SimulationError):
            self.interface().host_transfer(0.0, 4096, "sideways")

    def test_firmware_download_then_commit_registers_binary(self):
        nvme = self.interface()
        end = nvme.submit_admin(0.0, AdminCommand(
            AdminOpcode.FIRMWARE_DOWNLOAD, payload_bytes=256 * 1024,
            conduit_binary=True))
        end = nvme.submit_admin(end, AdminCommand(AdminOpcode.FIRMWARE_COMMIT))
        assert nvme.latest_binary is not None
        assert nvme.latest_binary.size_bytes == 256 * 1024
        assert end > 0

    def test_commit_without_download_raises(self):
        with pytest.raises(SimulationError):
            self.interface().submit_admin(0.0, AdminCommand(
                AdminOpcode.FIRMWARE_COMMIT))

    def test_download_binary_convenience(self):
        nvme = self.interface()
        end = nvme.download_binary(0.0, 64 * 1024)
        assert nvme.latest_binary.size_bytes == 64 * 1024
        assert end > 0

    def test_bytes_counters(self):
        nvme = self.interface()
        nvme.host_transfer(0.0, 100, "ssd-to-host")
        nvme.host_transfer(0.0, 200, "host-to-ssd")
        assert nvme.bytes_to_host == 100
        assert nvme.bytes_from_host == 200

    def test_computation_mode_blocks_host_io(self):
        nvme = self.interface()
        nvme.enter_computation_mode()
        assert nvme.mode is SSDMode.COMPUTATION
        with pytest.raises(SimulationError):
            nvme.check_host_io_allowed()
        nvme.enter_regular_io_mode()
        nvme.check_host_io_allowed()


class TestSSDDevice:
    def ssd(self) -> SSD:
        return SSD(small_ssd_config())

    def test_populate_places_all_pages(self):
        ssd = self.ssd()
        ssd.populate(range(100))
        assert ssd.ftl.mapped_pages() == 100

    def test_populate_with_colocation(self):
        ssd = self.ssd()
        ssd.populate(range(20), colocated_groups=[[0, 1, 2, 3]])
        blocks = {ssd.location_of(lpa).block_address() for lpa in range(4)}
        assert len(blocks) == 1

    def test_read_page_charges_latency(self):
        ssd = self.ssd()
        ssd.populate([1])
        assert ssd.read_page(0.0, 1) >= ssd.config.nand.read_latency_ns

    def test_read_unmapped_raises(self):
        with pytest.raises(SimulationError):
            self.ssd().read_page(0.0, 12345)

    def test_write_page_updates_mapping(self):
        ssd = self.ssd()
        ssd.populate([1])
        before = ssd.location_of(1)
        end = ssd.write_page(0.0, 1)
        assert ssd.location_of(1) != before
        assert end >= ssd.config.nand.program_latency_ns

    def test_host_io_round_trip(self):
        ssd = self.ssd()
        ssd.populate(range(4))
        read_done = ssd.host_read(0.0, [0, 1])
        write_done = ssd.host_write(read_done, [2, 3])
        assert write_done > read_done > 0
        assert ssd.nvme.bytes_to_host > 0
        assert ssd.nvme.bytes_from_host > 0

    def test_host_io_rejected_in_computation_mode(self):
        ssd = self.ssd()
        ssd.populate([0])
        ssd.enter_computation_mode()
        with pytest.raises(SimulationError):
            ssd.host_read(0.0, [0])
        ssd.enter_regular_io_mode()
        ssd.host_read(0.0, [0])
