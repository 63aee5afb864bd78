"""Machine configuration: cache geometry, timing, mesh shape, tile layout.

Configs load from a JSON file whose keys mirror the dataclass fields, with
every field optional (defaults below reproduce the reference machine: a 2x1
mesh with one host-agent tile and one guest tile, 8KB 4-way private caches
with 16-byte lines, 4-cycle hits and a 100+/-1-cycle memory round trip).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import ConfigError

HOST_AGENT = "host-agent"
GUEST_RV32 = "guest-rv32"

MAILBOX_SIZE = 64


@dataclass(frozen=True)
class GuestRegion:
    """The shared guest region; the mailbox is its top MAILBOX_SIZE bytes."""

    base: int
    size: int

    @property
    def top(self) -> int:
        return self.base + self.size

    @property
    def mailbox_addr(self) -> int:
        return self.top - MAILBOX_SIZE


def _is_pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


@dataclass
class CacheGeometry:
    l15_size_bytes: int = 8192
    l15_associativity: int = 4
    line_size_bytes: int = 16
    l2_slice_size_bytes: int = 65536
    l2_associativity: int = 4

    def validate(self):
        for name in ("l15_size_bytes", "line_size_bytes", "l2_slice_size_bytes"):
            if not _is_pow2(getattr(self, name)):
                raise ConfigError(f"{name} must be a power of two")
        if self.line_size_bytes < 4:
            raise ConfigError("line_size_bytes must be >= 4")
        for size, assoc, name in (
            (self.l15_size_bytes, self.l15_associativity, "l15"),
            (self.l2_slice_size_bytes, self.l2_associativity, "l2"),
        ):
            lines = size // self.line_size_bytes
            if assoc < 1 or lines % assoc:
                raise ConfigError(f"{name} associativity must divide its line count")


@dataclass
class TimingConfig:
    l15_hit_cycles: int = 4
    dram_access_cycles: int = 100
    dram_jitter_cycles: int = 1
    load_store_exec_cycles: int = 5
    l15_to_l2_cycles: int = 20
    alu_cycles: int = 3
    branch_cycles: int = 3
    jump_cycles: int = 3
    fence_cycles: int = 1
    system_cycles: int = 0  # CSR reads cost their fetch only; see rv32.core

    def validate(self):
        for name in ("l15_hit_cycles", "dram_access_cycles", "load_store_exec_cycles",
                     "l15_to_l2_cycles"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("dram_jitter_cycles", "alu_cycles", "branch_cycles", "jump_cycles",
                     "fence_cycles", "system_cycles"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.dram_jitter_cycles >= self.dram_access_cycles:
            raise ConfigError("dram jitter must be smaller than the access time")


@dataclass
class MeshConfig:
    width: int = 2
    height: int = 1
    hop_cycles: int = 1

    def validate(self):
        if self.width < 1 or self.height < 1:
            raise ConfigError("mesh dimensions must be >= 1")
        if self.hop_cycles < 1:
            raise ConfigError("hop_cycles must be >= 1")


@dataclass
class MachineConfig:
    mesh: MeshConfig = field(default_factory=MeshConfig)
    tiles: list[str] = field(default_factory=lambda: [HOST_AGENT, GUEST_RV32])
    cache: CacheGeometry = field(default_factory=CacheGeometry)
    timing: TimingConfig = field(default_factory=TimingConfig)
    guest_base: int = 0x0001_0000
    guest_region_size: int = 4 * 1024 * 1024
    stack_size: int = 64 * 1024
    poll_interval: int = 50
    seed: int = 0
    dram_size: int = 16 * 1024 * 1024
    sim_cycle_limit: int = 200_000_000
    check_data_values: bool = True

    def validate(self):
        self.mesh.validate()
        self.cache.validate()
        self.timing.validate()
        if self.tiles.count(HOST_AGENT) != 1:
            raise ConfigError("exactly one host-agent tile is required")
        if GUEST_RV32 not in self.tiles:
            raise ConfigError("at least one guest tile is required")
        for kind in self.tiles:
            if kind not in (HOST_AGENT, GUEST_RV32):
                raise ConfigError(f"unknown tile kind {kind!r}")
        if len(self.tiles) > self.mesh.width * self.mesh.height:
            raise ConfigError("more tiles than mesh positions")
        if self.poll_interval < 1:
            raise ConfigError("poll_interval must be >= 1")
        if self.guest_region_size < 4096 or self.guest_region_size % MAILBOX_SIZE:
            raise ConfigError("guest_region_size must be >= 4096 and 64-byte aligned")
        if self.guest_base % self.cache.line_size_bytes:
            raise ConfigError("guest_base must be line-aligned")
        if self.guest_base + self.guest_region_size > self.dram_size:
            raise ConfigError("guest region exceeds the physical map")
        if self.stack_size < 1024 or self.stack_size >= self.guest_region_size:
            raise ConfigError("stack_size must be in [1024, region size)")

    @property
    def region(self) -> GuestRegion:
        return GuestRegion(self.guest_base, self.guest_region_size)

    def guest_tile(self) -> int:
        return self.tiles.index(GUEST_RV32)

    def host_tile(self) -> int:
        return self.tiles.index(HOST_AGENT)


_SECTIONS = {"mesh": MeshConfig, "cache": CacheGeometry, "timing": TimingConfig}
# What a JSON value must be for each field type (bool is not an int here)
_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "bool": ("true or false", lambda v: type(v) is bool),
    "list[str]": ("a list of strings",
                  lambda v: type(v) is list and all(type(s) is str for s in v)),
}


def _from_dict(cls, data: dict, path: str):
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in types:
            raise ConfigError(f"unknown config key {path}{key}")
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"{path}{key} must be an object")
            value = _from_dict(_SECTIONS[key], value, f"{path}{key}.")
        else:
            what, ok = _TYPES[types[key]]
            if not ok(value):
                raise ConfigError(f"{path}{key} must be {what}")
        kwargs[key] = value
    return cls(**kwargs)


def load_config(path: str | None) -> MachineConfig:
    """Build a validated MachineConfig from a JSON file (or defaults if None)."""
    if path is None:
        cfg = MachineConfig()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config {path} is not valid JSON: {err}") from err
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _from_dict(MachineConfig, data, "")
    cfg.validate()
    return cfg
