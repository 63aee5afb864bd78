"""Every invalid machine configuration fails as a ConfigError that names its cause."""

import pytest

from tilesim.config import (
    GUEST_RV32,
    HOST_AGENT,
    CacheGeometry,
    MachineConfig,
    MeshConfig,
    TimingConfig,
    load_config,
)
from tilesim.errors import ConfigError


@pytest.mark.parametrize("fields, message", [
    ({"cache": CacheGeometry(l15_size_bytes=3000)}, "l15_size_bytes must be a power of two"),
    ({"cache": CacheGeometry(line_size_bytes=24)}, "line_size_bytes must be a power of two"),
    ({"cache": CacheGeometry(l2_slice_size_bytes=65535)},
     "l2_slice_size_bytes must be a power of two"),
    ({"cache": CacheGeometry(line_size_bytes=2)}, "line_size_bytes must be >= 4"),
    ({"cache": CacheGeometry(l15_associativity=3)}, "l15 associativity must divide"),
    ({"cache": CacheGeometry(l2_associativity=0)}, "l2 associativity must divide"),
    ({"timing": TimingConfig(dram_jitter_cycles=100)},
     "dram jitter must be smaller than the access time"),
    ({"mesh": MeshConfig(width=0)}, "mesh dimensions must be >= 1"),
    ({"mesh": MeshConfig(height=0)}, "mesh dimensions must be >= 1"),
    ({"mesh": MeshConfig(hop_cycles=0)}, "hop_cycles must be >= 1"),
    ({"tiles": [GUEST_RV32, GUEST_RV32]}, "exactly one host-agent tile is required"),
    ({"tiles": [HOST_AGENT, HOST_AGENT]}, "exactly one host-agent tile is required"),
    ({"tiles": [HOST_AGENT]}, "at least one guest tile is required"),
    ({"tiles": [HOST_AGENT, GUEST_RV32, "guest-sparc"], "mesh": MeshConfig(width=3)},
     "unknown tile kind 'guest-sparc'"),
    ({"tiles": [HOST_AGENT, GUEST_RV32, GUEST_RV32]}, "more tiles than mesh positions"),
    ({"poll_interval": 0}, "poll_interval must be >= 1"),
    ({"guest_base": 0x1_0008}, "guest_base must be line-aligned"),
    ({"stack_size": 512}, r"stack_size must be in \[1024, region size\)"),
    ({"stack_size": 4 * 1024 * 1024}, r"stack_size must be in \[1024, region size\)"),
])
def test_one_bad_field_fails_validation_naming_it(fields, message):
    with pytest.raises(ConfigError, match=message):
        MachineConfig(**fields).validate()


def test_load_config_names_an_unreadable_file(tmp_path):
    path = tmp_path / "missing.json"
    with pytest.raises(ConfigError, match=r"cannot read config .*missing\.json"):
        load_config(str(path))


def test_load_config_names_invalid_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": 1,')
    with pytest.raises(ConfigError, match=r"config .*cfg\.json is not valid JSON"):
        load_config(str(path))


def test_load_config_rejects_a_root_that_is_not_an_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="config root must be a JSON object"):
        load_config(str(path))


def test_load_config_rejects_the_deleted_reset_vector_key(tmp_path):
    """The guest leaves reset at guest_base, so no config may name a reset vector."""
    path = tmp_path / "cfg.json"
    path.write_text('{"reset_vector": 65536}')
    with pytest.raises(ConfigError, match="unknown config key reset_vector"):
        load_config(str(path))
