from .cache import CacheArray, CacheLine, LineState
from .fabric import (
    DirectoryEntry,
    FabricPort,
    KIND_IFETCH,
    KIND_LOAD,
    KIND_STORE,
    MemoryFabric,
    MemoryTransaction,
    SERVICED_DRAM,
    SERVICED_L15,
    SERVICED_L2,
)

__all__ = [
    "CacheArray",
    "CacheLine",
    "DirectoryEntry",
    "FabricPort",
    "KIND_IFETCH",
    "KIND_LOAD",
    "KIND_STORE",
    "LineState",
    "MemoryFabric",
    "MemoryTransaction",
    "SERVICED_DRAM",
    "SERVICED_L15",
    "SERVICED_L2",
]
