"""In-storage processing (ISP): SSD controller core compute model."""

from repro.isp.core import ISPBackend
from repro.isp.isa import (ISP_NATIVE_INSTRUCTION_COUNT, ISP_SUPPORTED_OPS,
                           cycles_per_beat, mnemonic)

__all__ = [
    "ISPBackend",
    "ISP_NATIVE_INSTRUCTION_COUNT", "ISP_SUPPORTED_OPS", "cycles_per_beat",
    "mnemonic",
]
