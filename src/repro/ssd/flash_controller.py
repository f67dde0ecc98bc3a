"""Flash controllers and flash channels.

A modern SSD has one flash controller (FC) per channel (Section 2.1).  The
FC issues commands to the dies on its channel, moves pages between the die
page buffers and the controller over the shared channel bus, and performs
ECC decoding/encoding.  The channel is the bandwidth-limited shared resource
whose contention the paper repeatedly identifies as the limiting factor of
ISP and PuD-SSD (operands must cross it) and of naive IFP+ISP combinations.

:class:`FlashChannelSubsystem` models the full set of channels and dies as
reservation-based resources and exposes the timing paths the rest of the
simulator needs:

* ``read_page`` -- sense a page inside the die (tR) and stream it out over
  the channel to the controller (tDMA + transfer + ECC).
* ``program_page`` -- stream a page in and program it (tPROG).
* ``erase_block`` -- erase inside the die.
"""

from __future__ import annotations

from repro.common import SimulationError
from repro.ssd.config import NANDConfig
from repro.ssd.events import BusGroup, MultiServer


class FlashChannelSubsystem:
    """Reservation model of all flash channels, controllers and dies.

    Every operation reserves its channel and die and returns its end time.
    """

    def __init__(self, config: NANDConfig) -> None:
        self.config = config
        self.channels = BusGroup("flash-channel", config.channels,
                                 config.channel_bandwidth_bytes_per_ns)
        # One MultiServer per channel models the dies behind that channel;
        # dies execute sense/program/erase ops independently.
        self.dies = [MultiServer(f"dies[ch{c}]", config.dies_per_channel)
                     for c in range(config.channels)]
        # ECC decode latency approximated as part of the FC pipeline.
        self.ecc_latency_ns = 500.0
        # A command occupies the channel for the command latency.
        self._command_bytes = (config.command_latency_ns *
                               config.channel_bandwidth_bytes_per_ns)

    def _check_channel(self, channel: int) -> None:
        if not 0 <= channel < self.config.channels:
            raise SimulationError(f"channel {channel} out of range")

    # -- Data-path operations -----------------------------------------------

    def read_page(self, now: float, channel: int, die: int) -> float:
        """Sense a page and transfer it to the controller."""
        self._check_channel(channel)
        config = self.config
        bus = self.channels.buses[channel]
        # Command transfer over the channel, then page sensing on the die.
        sensed = self.dies[channel].reserve_on(
            die, bus.transfer(now, self._command_bytes),
            config.read_latency_ns)
        # Page transfer: tDMA plus streaming the page over the channel bus.
        return bus.transfer(sensed + config.dma_latency_ns,
                            config.page_size_bytes) + self.ecc_latency_ns

    def program_page(self, now: float, channel: int, die: int) -> float:
        """Transfer a page into the die and program it (SLC mode)."""
        self._check_channel(channel)
        config = self.config
        loaded = self.channels.buses[channel].transfer(
            now, config.page_size_bytes)
        return self.dies[channel].reserve_on(
            die, loaded + config.dma_latency_ns, config.program_latency_ns)

    def erase_block(self, now: float, channel: int, die: int) -> float:
        """Send the erase command and erase the block on its die."""
        self._check_channel(channel)
        command = self.channels.buses[channel].transfer(
            now, self._command_bytes)
        return self.dies[channel].reserve_on(die, command,
                                             self.config.erase_latency_ns)

    # -- Estimation helpers (no reservation) ----------------------------------

    def uncontended_read_latency(self) -> float:
        config = self.config
        sensed = config.command_latency_ns + config.read_latency_ns
        return sensed + (config.dma_latency_ns +
                         self.channels.transfer_time(config.page_size_bytes) +
                         self.ecc_latency_ns)

    def uncontended_program_latency(self) -> float:
        return (self.channels.transfer_time(self.config.page_size_bytes) +
                self.config.dma_latency_ns + self.config.program_latency_ns)

    def channel_utilization(self, elapsed: float) -> float:
        return self.channels.utilization(elapsed)

    def die_utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        total = sum(pool.utilization(elapsed) for pool in self.dies)
        return total / len(self.dies)
