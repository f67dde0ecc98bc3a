"""NVMe host interface.

Models the host<->SSD communication paths Conduit relies on (Section 4.4):

* Regular I/O: reads and writes of logical pages over NVMe/PCIe.
* Binary transfer: Conduit repurposes the existing NVMe admin commands for
  firmware update -- ``fw-download`` and ``fw-commit`` -- extended with a
  flag that tells the controller the payload is a Conduit binary rather than
  FTL firmware.
* Operating modes: *regular I/O mode* (host I/O and FTL operations) and
  *computation mode* (all SSD resources are devoted to NDP; host I/O is
  suspended until the host switches the device back).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.common import SimulationError
from repro.ssd.config import HostInterfaceConfig
from repro.ssd.events import SharedBus


class SSDMode(enum.Enum):
    """Operating modes of the SSD (Section 4.4, Host-SSD Communication)."""

    REGULAR_IO = "regular-io"
    COMPUTATION = "computation"


class AdminOpcode(enum.Enum):
    """Subset of NVMe admin opcodes the model understands."""

    FIRMWARE_DOWNLOAD = "fw-download"
    FIRMWARE_COMMIT = "fw-commit"
    SET_FEATURES = "set-features"


@dataclass
class AdminCommand:
    """One NVMe admin command submitted by the host."""

    opcode: AdminOpcode
    payload_bytes: int = 0
    #: Conduit's extension flag: marks a firmware download as a Conduit
    #: binary instead of vendor FTL firmware.
    conduit_binary: bool = False


@dataclass
class CommittedBinary:
    """A Conduit binary that has been downloaded and committed."""

    size_bytes: int
    committed_at_ns: float
    slot: int


class NVMeInterface:
    """NVMe command processing and the PCIe link to the host."""

    def __init__(self, config: HostInterfaceConfig) -> None:
        self.config = config
        self.pcie = SharedBus("pcie", config.pcie_bandwidth_bytes_per_ns)
        self.mode = SSDMode.REGULAR_IO
        #: Bytes moved over PCIe in each direction.
        self.bytes_to_host = 0
        self.bytes_from_host = 0
        self.committed_binaries: List[CommittedBinary] = []
        self._staged_binary_bytes = 0
        self._staged_is_conduit = False

    # -- Data path -------------------------------------------------------------

    def host_transfer(self, now: float, size_bytes: int,
                      direction: str) -> float:
        """Move ``size_bytes`` between host memory and the SSD over PCIe.

        Returns the end time of the transfer.
        """
        if direction not in ("host-to-ssd", "ssd-to-host"):
            raise SimulationError(f"unknown transfer direction {direction}")
        end = self.pcie.transfer(now + self.config.nvme_command_latency_ns,
                                 size_bytes)
        if direction == "ssd-to-host":
            self.bytes_to_host += size_bytes
        else:
            self.bytes_from_host += size_bytes
        return end

    def host_transfer_latency(self, size_bytes: int) -> float:
        """Uncontended host transfer latency for ``size_bytes``."""
        return (self.config.nvme_command_latency_ns +
                self.pcie.transfer_time(size_bytes))

    # -- Admin commands -----------------------------------------------------------

    def submit_admin(self, now: float, command: AdminCommand) -> float:
        """Process an admin command; returns its completion time."""
        end = now + self.config.nvme_command_latency_ns
        if command.opcode is AdminOpcode.FIRMWARE_DOWNLOAD:
            end = self._firmware_download(now, command)
        elif command.opcode is AdminOpcode.FIRMWARE_COMMIT:
            end = self._firmware_commit(now, command)
        elif command.opcode is AdminOpcode.SET_FEATURES:
            pass  # mode switching is done via enter_*_mode below
        return end

    def _firmware_download(self, now: float, command: AdminCommand) -> float:
        if command.payload_bytes <= 0:
            raise SimulationError("fw-download requires a payload")
        chunk = self.config.firmware_download_chunk_bytes
        remaining = command.payload_bytes
        time = now
        while remaining > 0:
            piece = min(chunk, remaining)
            time = self.host_transfer(time, piece, "host-to-ssd")
            remaining -= piece
        self._staged_binary_bytes += command.payload_bytes
        self._staged_is_conduit = command.conduit_binary
        return time

    def _firmware_commit(self, now: float, command: AdminCommand) -> float:
        if self._staged_binary_bytes == 0:
            raise SimulationError("fw-commit without a staged download")
        end = now + self.config.nvme_command_latency_ns
        if self._staged_is_conduit or command.conduit_binary:
            self.committed_binaries.append(CommittedBinary(
                size_bytes=self._staged_binary_bytes, committed_at_ns=end,
                slot=len(self.committed_binaries)))
        self._staged_binary_bytes = 0
        self._staged_is_conduit = False
        return end

    def download_binary(self, now: float, size_bytes: int) -> float:
        """Convenience path: fw-download chunks followed by fw-commit."""
        end = self.submit_admin(now, AdminCommand(
            AdminOpcode.FIRMWARE_DOWNLOAD, payload_bytes=size_bytes,
            conduit_binary=True))
        return self.submit_admin(end, AdminCommand(
            AdminOpcode.FIRMWARE_COMMIT, conduit_binary=True))

    @property
    def latest_binary(self) -> Optional[CommittedBinary]:
        return self.committed_binaries[-1] if self.committed_binaries else None

    # -- Operating modes ------------------------------------------------------------

    def enter_computation_mode(self) -> None:
        self.mode = SSDMode.COMPUTATION

    def enter_regular_io_mode(self) -> None:
        self.mode = SSDMode.REGULAR_IO

    def check_host_io_allowed(self) -> None:
        """Host I/O is suspended while the SSD is in computation mode."""
        if self.mode is SSDMode.COMPUTATION:
            raise SimulationError(
                "host I/O is suspended while the SSD is in computation mode")
