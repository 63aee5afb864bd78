"""Mesh hop distance, channel mapping and count conservation."""

import pytest
from hypothesis import given, settings, strategies as st

from tilesim.config import MeshConfig
from tilesim.errors import ConfigError
from tilesim.noc import CH_REQ, CH_RESP, CH_WB_IRQ, CHANNEL_OF, Noc


def make_noc(width=3, height=3, n_tiles=None, hop_cycles=1):
    n_tiles = n_tiles if n_tiles is not None else width * height
    return Noc(MeshConfig(width=width, height=height, hop_cycles=hop_cycles), n_tiles)


def test_local_delivery_is_empty_route():
    noc = make_noc()
    assert noc.hop_count(4, 4) == 0


def test_adjacent_hop_on_2x1():
    noc = make_noc(width=2, height=1)
    assert noc.hop_count(0, 1) == 1


def test_unreachable_destination_is_config_error():
    noc = make_noc(width=2, height=1, n_tiles=2)
    with pytest.raises(ConfigError):
        noc.hop_count(0, 5)
    with pytest.raises(ConfigError):
        Noc(MeshConfig(width=1, height=1), n_tiles=4)


@given(
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=200, deadline=None)
def test_latency_equals_manhattan_distance_times_hop(src, dst, hop_cycles):
    noc = make_noc(width=5, height=5, hop_cycles=hop_cycles)
    (sx, sy), (dx, dy) = noc.coord(src), noc.coord(dst)
    manhattan = abs(sx - dx) + abs(sy - dy)
    assert noc.hop_count(src, dst) == manhattan
    delivery = noc.send_interrupt(src, dst, "start", when=100)
    assert delivery == 100 + manhattan * hop_cycles


def test_channel_assignment_fixed():
    assert CHANNEL_OF["GetShared"] == CH_REQ
    assert CHANNEL_OF["GetModified"] == CH_REQ
    assert CHANNEL_OF["DataShared"] == CH_RESP
    assert CHANNEL_OF["InvalidateAck"] == CH_RESP
    assert CHANNEL_OF["Writeback"] == CH_WB_IRQ
    assert CHANNEL_OF["Interrupt"] == CH_WB_IRQ


def test_interrupt_count_conservation():
    noc = make_noc(width=2, height=1)
    for i in range(10):
        noc.send_interrupt(0, 1, "ipi", when=i)
    assert noc.injected[CH_WB_IRQ] == 10
    assert noc.counts()["noc.ch3.delivered"] == 10


def test_coherence_transfer_counts_both_sides():
    noc = make_noc(width=2, height=1)
    noc.transfer("GetShared", 0, 1, 0x1000)
    noc.transfer("DataShared", 1, 0, 0x1000)
    assert noc.injected == {1: 1, 2: 1, 3: 0}
    assert [noc.counts()[f"noc.ch{ch}.delivered"] for ch in (1, 2, 3)] == [1, 1, 0]

