"""SSD storage substrate: NAND SSD model on reservation servers (MQSim-style)."""

from repro.ssd.allocator import PageAllocator
from repro.ssd.config import (ControllerConfig, FTLConfig,
                              HostInterfaceConfig, NANDConfig, SSDConfig,
                              SSDEnergyConfig, small_ssd_config)
from repro.ssd.events import (BusGroup, MultiServer, Reservation, Server,
                              SharedBus)
from repro.ssd.flash_controller import FlashChannelSubsystem
from repro.ssd.ftl import FlashTranslationLayer, MappingCache
from repro.ssd.gc import GarbageCollector
from repro.ssd.nand import (FlashBlock, FlashDie, FlashPlane, NANDArray,
                            PageState, PhysicalBlockAddress,
                            PhysicalPageAddress)
from repro.ssd.nvme import (AdminCommand, AdminOpcode, NVMeInterface,
                            SSDMode)
from repro.ssd.queues import ExecutionQueue
from repro.ssd.ssd import SSD
from repro.ssd.wear_leveling import WearLeveler

__all__ = [
    "PageAllocator", "ControllerConfig", "FTLConfig",
    "HostInterfaceConfig", "NANDConfig", "SSDConfig", "SSDEnergyConfig",
    "small_ssd_config", "BusGroup", "MultiServer",
    "Reservation", "Server", "SharedBus", "FlashChannelSubsystem",
    "FlashTranslationLayer", "MappingCache", "GarbageCollector",
    "FlashBlock", "FlashDie", "FlashPlane", "NANDArray", "PageState",
    "PhysicalBlockAddress", "PhysicalPageAddress", "AdminCommand",
    "AdminOpcode", "NVMeInterface", "SSDMode", "ExecutionQueue",
    "SSD",
    "WearLeveler",
]
