"""SSD-internal DRAM substrate and processing-using-DRAM (PuD-SSD)."""

from repro.dram.bank import BankStatistics, DRAMBank
from repro.dram.config import DRAMConfig
from repro.dram.cxl import CXLPuDBackend, CXLPuDConfig
from repro.dram.dram import DRAMDevice
from repro.dram.pud import PUD_SUPPORTED_OPS, PuDBackend

__all__ = [
    "BankStatistics", "DRAMBank", "DRAMConfig", "CXLPuDBackend",
    "CXLPuDConfig", "DRAMDevice", "PUD_SUPPORTED_OPS",
    "PuDBackend",
]
