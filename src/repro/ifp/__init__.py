"""In-flash processing (IFP): Flash-Cosmos bitwise + Ares-Flash arithmetic."""

from repro.ifp.aresflash import AresFlashOperation, AresFlashUnit
from repro.ifp.flashcosmos import FlashCosmosUnit, MWSOperation
from repro.ifp.isa import (ARES_FLASH_OPS, FLASH_COSMOS_OPS,
                           IFP_SUPPORTED_OPS, MAX_AND_OPERANDS_PER_BLOCK,
                           MAX_OR_OPERANDS_PER_PLANE, primitive)
from repro.ifp.unit import IFPBackend

__all__ = [
    "AresFlashOperation", "AresFlashUnit", "FlashCosmosUnit", "MWSOperation",
    "ARES_FLASH_OPS", "FLASH_COSMOS_OPS", "IFP_SUPPORTED_OPS",
    "MAX_AND_OPERANDS_PER_BLOCK", "MAX_OR_OPERANDS_PER_PLANE", "primitive",
    "IFPBackend",
]
