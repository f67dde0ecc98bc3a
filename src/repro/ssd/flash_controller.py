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

* ``read_page`` -- sense a page inside the die (tR) and optionally stream it
  out over the channel (tDMA + transfer).
* ``program_page`` -- stream a page in and program it (tPROG).
* ``erase_block`` -- erase inside the die.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import SimulationError
from repro.ssd.config import NANDConfig
from repro.ssd.events import BusGroup, MultiServer, Reservation


@dataclass
class FlashOperationTiming:
    """Timing of one flash operation decomposed into its phases."""

    start: float
    die_done: float
    end: float
    channel_busy_ns: float = 0.0

    @property
    def latency(self) -> float:
        return self.end - self.start


class FlashChannelSubsystem:
    """Reservation model of all flash channels, controllers and dies."""

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

    def _check_channel(self, channel: int) -> None:
        if not 0 <= channel < self.config.channels:
            raise SimulationError(f"channel {channel} out of range")

    # -- Data-path operations -----------------------------------------------

    def read_page(self, now: float, channel: int, die: int, *,
                  transfer_out: bool = True) -> FlashOperationTiming:
        """Sense a page and (optionally) transfer it to the controller."""
        self._check_channel(channel)
        # Command transfer over the channel.
        cmd = self.channels.transfer(
            now, self.config.command_latency_ns *
            self.config.channel_bandwidth_bytes_per_ns, channel=channel)
        # Page sensing occupies the die.
        sense = self.dies[channel].reserve(cmd.end,
                                           self.config.read_latency_ns,
                                           server_index=die)
        if not transfer_out:
            return FlashOperationTiming(start=now, die_done=sense.end,
                                        end=sense.end,
                                        channel_busy_ns=cmd.end - cmd.start)
        # Page transfer: tDMA plus streaming the page over the channel bus.
        dma_end = sense.end + self.config.dma_latency_ns
        out = self.channels.transfer(dma_end, self.config.page_size_bytes,
                                     channel=channel)
        end = out.end + self.ecc_latency_ns
        busy = (cmd.end - cmd.start) + (out.end - out.start)
        return FlashOperationTiming(start=now, die_done=sense.end, end=end,
                                    channel_busy_ns=busy)

    def program_page(self, now: float, channel: int,
                     die: int) -> FlashOperationTiming:
        """Transfer a page into the die and program it (SLC mode)."""
        self._check_channel(channel)
        xfer = self.channels.transfer(now, self.config.page_size_bytes,
                                      channel=channel)
        dma_end = xfer.end + self.config.dma_latency_ns
        program = self.dies[channel].reserve(
            dma_end, self.config.program_latency_ns, server_index=die)
        return FlashOperationTiming(start=now, die_done=program.end,
                                    end=program.end,
                                    channel_busy_ns=xfer.end - xfer.start)

    def erase_block(self, now: float, channel: int,
                    die: int) -> FlashOperationTiming:
        self._check_channel(channel)
        cmd = self.channels.transfer(
            now, self.config.command_latency_ns *
            self.config.channel_bandwidth_bytes_per_ns, channel=channel)
        erase = self.dies[channel].reserve(cmd.end,
                                           self.config.erase_latency_ns,
                                           server_index=die)
        return FlashOperationTiming(start=now, die_done=erase.end,
                                    end=erase.end,
                                    channel_busy_ns=cmd.end - cmd.start)

    # -- Estimation helpers (no reservation) ----------------------------------

    def uncontended_read_latency(self, *, transfer_out: bool = True) -> float:
        latency = (self.config.command_latency_ns +
                   self.config.read_latency_ns)
        if transfer_out:
            latency += (self.config.dma_latency_ns +
                        self.channels.transfer_time(
                            self.config.page_size_bytes) +
                        self.ecc_latency_ns)
        return latency

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
