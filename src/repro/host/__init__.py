"""Host substrate: analytical CPU/GPU models for OSP baselines."""

from repro.host.config import HostCPUConfig, HostGPUConfig, HostMemoryConfig
from repro.host.cpu import HostCPUBackend
from repro.host.gpu import HostGPUBackend

__all__ = [
    "HostCPUConfig", "HostGPUConfig", "HostMemoryConfig", "HostCPUBackend",
    "HostGPUBackend",
]
