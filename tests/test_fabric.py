"""Memory fabric: latencies, little-endian byte lanes, MSI coherence, LRU,
inclusion, and the data-value invariant against an independent flat model."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tilesim.config import MachineConfig, MeshConfig, TimingConfig
from tilesim.errors import ConfigError, MemoryFault, ProtocolError, SimError
from tilesim.mem.cache import LineState
from tilesim.mem.fabric import FabricPort, MemoryFabric, SERVICED_DRAM, SERVICED_L15, SERVICED_L2
from tilesim.noc import Noc


def make_fabric(n_guests=1, jitter=0, seed=0, trace=None, **timing_kw):
    tiles = ["host-agent"] + ["guest-rv32"] * n_guests
    cfg = MachineConfig(
        tiles=tiles,
        mesh=MeshConfig(width=len(tiles), height=1),
        timing=TimingConfig(dram_jitter_cycles=jitter, **timing_kw),
        seed=seed,
        dram_size=1 << 20,
        guest_region_size=256 * 1024,
    )
    cfg.validate()
    noc = Noc(cfg.mesh, len(tiles), trace=trace)
    fabric = MemoryFabric(cfg, noc, trace=trace)
    return fabric


def guest_port(fabric, tile=1):
    return FabricPort(fabric, tile)


# -- endianness ---------------------------------------------------------------


def test_guest_store_lands_little_endian_host_raw_read_flips():
    fabric = make_fabric()
    guest_port(fabric).store(0x1000, 4, 0xDEADBEEF)
    assert bytes(fabric.l15[1].lookup(0x1000).data[0:4]) == b"\xef\xbe\xad\xde"
    assert bytes(fabric.dram[0x1000:0x1004]) == b"\x00" * 4  # still cached, not in DRAM
    host = FabricPort(fabric, 0)
    lanes = bytes(host.load(0x1000 + i, 1)[0] for i in range(4))
    assert lanes == b"\xef\xbe\xad\xde"
    raw = int.from_bytes(lanes, "big")  # big-endian view of little-endian bytes
    assert raw == 0xEFBEADDE
    assert int.from_bytes(raw.to_bytes(4, "big"), "little") == 0xDEADBEEF


def test_little_endian_host_reads_guest_value_directly():
    fabric = make_fabric()
    guest_port(fabric).store(0x1000, 4, 0x12345678)
    value, _ = FabricPort(fabric, 0).load(0x1000, 4)
    assert value == 0x12345678


# -- latencies -----------------------------------------------------------------


def test_hit_is_exactly_l15_hit_cycles():
    fabric = make_fabric()
    port = guest_port(fabric)
    port.load(0x1000, 4)  # cold
    _, lat = port.load(0x1000, 4)
    assert lat == 4
    _, lat = port.load(0x1004, 4)  # same line
    assert lat == 4


def test_cold_miss_to_dram_is_100_without_jitter():
    fabric = make_fabric(jitter=0)
    _, lat = guest_port(fabric).load(0x2000, 4)
    assert lat == 100


def test_jitter_envelope_and_seed_determinism():
    lats = set()
    for trial in range(40):
        fabric = make_fabric(jitter=1, seed=trial)
        _, lat = guest_port(fabric).load(0x2000, 4)
        lats.add(lat)
    assert lats <= {99, 100, 101}
    assert len(lats) == 3  # 40 seeds is plenty to see the whole envelope

    def sequence(seed):
        fabric = make_fabric(jitter=1, seed=seed)
        port = guest_port(fabric)
        return [port.load(0x4000 + i * 64, 4)[1] for i in range(20)]

    assert sequence(7) == sequence(7)
    assert sequence(7) != sequence(8)  # 20 draws of 3 values: these two seeds differ


@pytest.mark.parametrize("jitter", [0, 1, 3])
def test_dram_draws_latencies_as_randint_does(jitter):
    """A DRAM read takes one of the outcomes built with the fabric, drawn from
    the seeded stream exactly as `randint(-jitter, jitter)` draws; without
    jitter it draws nothing."""
    fabric = make_fabric(jitter=jitter, seed=11)
    reference = random.Random(11)
    access = fabric.config.timing.dram_access_cycles
    for i in range(60):
        _, tx = fabric.dram_read(i * 16)
        assert tx.latency == access + (reference.randint(-jitter, jitter) if jitter else 0)
        assert tx.serviced_by == SERVICED_DRAM
        assert any(tx is built for built in fabric.dram_outcomes)
    assert fabric.rng.getstate() == reference.getstate()
    assert len(fabric.dram_outcomes) == 2 * jitter + 1
    # a miss to DRAM and one to the L2 return outcomes built with the fabric
    _, tx = fabric.access(1, "load", 0x8000, 4)
    assert any(tx is built for built in fabric.dram_outcomes)
    _, tx = fabric.access(0, "load", 0x8000, 4)
    assert tx is fabric.l2_hit and tx.latency == fabric.config.timing.l15_to_l2_cycles


def test_store_hit_after_write_allocate():
    fabric = make_fabric(jitter=0)
    port = guest_port(fabric)
    lat = port.store(0x3000, 4, 1)
    assert lat == 100  # write-allocate fetched the line from DRAM
    lat = port.store(0x3000, 4, 2)
    assert lat == 4  # now owned Modified: pure hit


def test_upgrade_store_serviced_by_l2():
    fabric = make_fabric(jitter=0)
    port = guest_port(fabric)
    port.load(0x3000, 4)  # line Shared
    lat = port.store(0x3000, 4, 5)
    assert lat == fabric.config.timing.l15_to_l2_cycles


def test_out_of_bounds_faults():
    fabric = make_fabric()
    with pytest.raises(MemoryFault):
        guest_port(fabric).load(0xFFFFFF00, 4)


def test_a_word_in_a_partial_last_line_faults_at_its_dram_read():
    """The access fits in a physical map that ends mid-line, but its line does not."""
    cfg = MachineConfig(dram_size=(1 << 20) + 8, guest_region_size=256 * 1024)
    cfg.validate()
    fabric = MemoryFabric(cfg, Noc(cfg.mesh, len(cfg.tiles)))
    with pytest.raises(MemoryFault, match="0x00100000: beyond the physical map"):
        guest_port(fabric).load(1 << 20, 4)


# -- windows --------------------------------------------------------------------


def test_zero_length_window_rejected():
    fabric = make_fabric()
    with pytest.raises(SimError, match="zero-length shared window rejected"):
        fabric.register_window(0x1000, 0)


@pytest.mark.parametrize("base, size", [(-16, 32), ((1 << 20) - 16, 32)])
def test_window_outside_the_physical_map_rejected(base, size):
    fabric = make_fabric()
    with pytest.raises(MemoryFault, match="window outside the physical map"):
        fabric.register_window(base, size)
    assert fabric.window == (0, 0)


def test_host_port_confined_to_windows():
    fabric = make_fabric()
    fabric.register_window(0x1000, 0x100)
    host = FabricPort(fabric, 0, enforce_windows=True)
    host.store(0x1000, 4, 1)
    host.load(0x10FC, 4)
    with pytest.raises(MemoryFault):
        host.load(0x1100, 4)
    with pytest.raises(MemoryFault):
        host.store(0x0FFC, 4, 1)


# -- coherence ------------------------------------------------------------------


def test_all_lines_invalid_at_startup():
    fabric = make_fabric(n_guests=2)
    for cache in fabric.l15 + fabric.l2:
        assert list(cache.resident_lines()) == []


def test_store_invalidates_other_readers():
    fabric = make_fabric(n_guests=2)
    a = guest_port(fabric, 1)
    b = guest_port(fabric, 2)
    a.store(0x5000, 4, 0xAAAA)
    assert a.load(0x5000, 4)[0] == 0xAAAA
    b.store(0x5000, 4, 0xBBBB)
    assert fabric.l15[1].lookup(0x5000) is None  # A's copy invalidated
    assert a.load(0x5000, 4)[0] == 0xBBBB  # A re-fetches B's value


def test_read_of_remote_modified_line_downgrades_owner():
    fabric = make_fabric(n_guests=2)
    a = guest_port(fabric, 1)
    b = guest_port(fabric, 2)
    a.store(0x5000, 4, 77)
    value, lat = b.load(0x5000, 4)
    assert value == 77
    assert lat == fabric.config.timing.l15_to_l2_cycles  # peer forward, not DRAM
    assert fabric.l15[1].lookup(0x5000).state is LineState.SHARED
    assert fabric.l15[2].lookup(0x5000).state is LineState.SHARED


def test_host_read_forces_downgrade_and_sees_guest_value():
    fabric = make_fabric()
    fabric.register_window(0x1000, 0x100)
    guest_port(fabric).store(0x1040, 4, 0xCAFEF00D)
    host = FabricPort(fabric, 0, enforce_windows=True)
    value, _ = host.load(0x1040, 4)
    assert value == 0xCAFEF00D
    assert fabric.l15[1].lookup(0x1040).state is LineState.SHARED


def test_lru_eviction_with_writeback():
    # 8KB 4-way, 16B lines -> 128 sets; five lines mapping to set 0
    fabric = make_fabric(jitter=0)
    port = guest_port(fabric)
    stride = 128 * 16  # one way's worth
    addrs = [0x8000 + i * stride for i in range(5)]
    for addr in addrs:
        port.store(addr, 4, addr)
    assert fabric.l15[1].lookup(addrs[0]) is None  # LRU victim was the first line
    for addr in addrs[1:]:
        assert fabric.l15[1].lookup(addr) is not None
    value, _ = port.load(addrs[0], 4)
    assert value == addrs[0]  # written back, then re-fetched


def test_lru_touch_updates_recency():
    fabric = make_fabric(jitter=0)
    port = guest_port(fabric)
    stride = 128 * 16
    addrs = [0x8000 + i * stride for i in range(4)]
    for addr in addrs:
        port.load(addr, 4)
    port.load(addrs[0], 4)  # refresh line 0
    port.load(0x8000 + 4 * stride, 4)  # evicts line 1, not line 0
    assert fabric.l15[1].lookup(addrs[0]) is not None
    assert fabric.l15[1].lookup(addrs[1]) is None


def test_protocol_violation_asserts():
    fabric = make_fabric(n_guests=2)
    with pytest.raises(ProtocolError, match="untracked"):
        fabric._writeback(1, 0x1000, b"x" * 16, 0)
    guest_port(fabric, 2).store(0x1000, 4, 1)  # tile 2 owns the line
    with pytest.raises(ProtocolError, match="non-owner tile 1"):
        fabric._writeback(1, 0x1000, b"x" * 16, 0)


def test_sweep_finds_an_owner_that_dropped_its_copy():
    """The sweep checks each directory entry against the private caches: a
    Modified line whose owner lost its copy without a writeback is caught."""
    fabric = make_fabric(n_guests=2)
    guest_port(fabric, 1).store(0x1000, 4, 1)
    fabric.check_global_invariants()
    fabric.l15[1].remove(fabric.l15[1].lookup(0x1000))  # a silent Modified eviction
    with pytest.raises(ProtocolError, match=r"tile 1\b"):
        fabric.check_global_invariants()


# -- each promised check fires on a state built by hand -------------------------

LINE = 0x1000


def l2_line(fabric, line_addr=LINE):
    return fabric.l2[fabric.home_of(line_addr)].lookup(line_addr)


def test_line_check_finds_a_second_copy_of_a_modified_line():
    fabric = make_fabric(n_guests=2)
    guest_port(fabric, 1).store(LINE, 4, 1)
    fabric.l15[2].install(LINE, bytearray(16), LineState.SHARED)
    with pytest.raises(ProtocolError, match="single-writer violated"):
        fabric._check_line_invariants(LINE)


def test_line_check_finds_modified_copy_of_a_shared_entry():
    fabric = make_fabric(n_guests=2)
    guest_port(fabric, 1).load(LINE, 4)
    fabric.l15[1].lookup(LINE).state = LineState.MODIFIED
    with pytest.raises(ProtocolError, match="M in tile 1, S in the directory"):
        fabric._check_line_invariants(LINE)


def test_line_check_finds_a_copy_missing_from_holders():
    fabric = make_fabric(n_guests=2)
    guest_port(fabric, 1).load(LINE, 4)
    fabric.l15[2].install(LINE, bytearray(16), LineState.SHARED)
    with pytest.raises(ProtocolError, match="in tile 2, missing from holders"):
        fabric._check_line_invariants(LINE)


def test_line_check_finds_a_copy_without_an_l2_line():
    fabric = make_fabric(n_guests=2)
    guest_port(fabric, 1).load(LINE, 4)
    fabric.l2[fabric.home_of(LINE)].remove(l2_line(fabric))
    with pytest.raises(ProtocolError, match="cached by tile 1 but untracked"):
        fabric._check_line_invariants(LINE)


def test_sweep_finds_a_modified_entry_with_two_holders():
    fabric = make_fabric(n_guests=2)
    guest_port(fabric, 1).store(LINE, 4, 1)
    l2_line(fabric).holders = frozenset({1, 2})  # tile 1's own copy still checks out
    fabric._check_line_invariants(LINE)
    with pytest.raises(ProtocolError, match=r"M with holders \[1, 2\]"):
        fabric.check_global_invariants()


def test_data_value_check_finds_dram_written_behind_the_shadow():
    fabric = make_fabric(n_guests=2)
    fabric.dram[LINE:LINE + 4] = b"\xff" * 4
    with pytest.raises(SimError, match="data-value check failed at 0x00001000"):
        guest_port(fabric, 1).load(LINE, 4)


def test_byte_hits_data_value_check_finds_a_changed_copy():
    """A run of one-byte loads compares its bytes with the shadow as a load does."""
    fabric = make_fabric()
    host = FabricPort(fabric, 0)
    host.store(LINE, 4, 0x04030201)
    assert fabric.byte_hits(0, LINE, 4, now=0) == (b"\x01\x02\x03\x04", 4 * 4)
    fabric.l15[0].lookup(LINE).data[2] ^= 0xFF
    with pytest.raises(SimError, match="data-value check failed at 0x00001001: read 02fc"):
        fabric.byte_hits(0, LINE + 1, 2, now=0)


def test_directory_finds_an_owner_that_re_requests_modified():
    fabric = make_fabric(n_guests=2)
    port = guest_port(fabric, 1)
    port.store(LINE, 4, 1)
    fabric.l15[1].remove(fabric.l15[1].lookup(LINE))  # a silent Modified eviction
    with pytest.raises(ProtocolError, match="owner re-requested M"):
        port.store(LINE, 4, 2)


def test_l2_eviction_finds_a_recall_of_modified_that_returns_no_data():
    """An L2 eviction and another tile's GetModified both recall the Modified
    line; a recall that brings no data back fails either way, rather than
    dropping the owner's write."""
    for recall in (lambda fabric: fabric._evict_l2(fabric.home_of(LINE), l2_line(fabric), 0),
                   lambda fabric: guest_port(fabric, 2).store(LINE, 4, 2)):
        fabric = make_fabric(n_guests=2)
        guest_port(fabric, 1).store(LINE, 4, 1)
        fabric.l15[1].remove(fabric.l15[1].lookup(LINE))  # a silent Modified eviction
        with pytest.raises(ProtocolError, match="recall of 0x00001000 returned no data"):
            recall(fabric)


def test_l2_eviction_sends_every_invalidate_before_the_first_ack():
    """An inclusion recall is the same protocol as a GetModified's: the home
    sends every holder its Invalidate, in tile order, before any ack."""
    lines = []
    fabric = make_fabric(n_guests=2, trace=lines.append)
    guest_port(fabric, 1).load(LINE, 4)
    guest_port(fabric, 2).load(LINE, 4)
    assert l2_line(fabric).holders == {1, 2}
    del lines[:]
    home = fabric.home_of(LINE)
    fabric._evict_l2(home, l2_line(fabric), 0)
    sent = [" ".join(line.split()[3:6]) for line in lines if line.startswith("COH ")]
    assert sent == [f"Invalidate src={home} dst=1", f"Invalidate src={home} dst=2",
                    f"InvalidateAck src=1 dst={home}", f"InvalidateAck src=2 dst={home}"]


def test_downgrade_to_non_owner_asserts():
    fabric = make_fabric(n_guests=2)
    with pytest.raises(ProtocolError, match="does not own"):
        fabric.cache_handle(1, "Downgrade", 0, 0x1000, 0)  # tile 1 holds nothing
    guest_port(fabric, 1).load(0x1000, 4)
    with pytest.raises(ProtocolError, match="does not own"):
        fabric.cache_handle(1, "Downgrade", 0, 0x1000, 0)  # a Shared copy is not owned


def assert_lines_own_their_data(fabric):
    """No two cache lines, private or L2, share one data bytearray."""
    lines = [line for arrays in (fabric.l15, fabric.l2) for array in arrays
             for line in array.resident_lines()]
    assert len({id(line.data) for line in lines}) == len(lines)


def test_line_moves_copy_and_store_hits_stay_private():
    """A line moved by a DRAM or an L2 miss, a Downgrade recall or a
    writeback is copied, so a store hit changes only the private copy."""
    fabric = make_fabric(n_guests=2, jitter=0)
    a, b = guest_port(fabric, 1), guest_port(fabric, 2)
    l2 = fabric.l2[fabric.home_of(0x5000)]

    assert fabric.access(1, "load", 0x5000, 4)[1].serviced_by == SERVICED_DRAM
    assert_lines_own_their_data(fabric)
    assert fabric.access(2, "load", 0x5000, 4)[1].serviced_by == SERVICED_L2
    assert_lines_own_their_data(fabric)

    a.store(0x5000, 4, 0x11111111)  # invalidates tile 2; tile 1 holds M
    b.load(0x5000, 4)  # recalls the data by a Downgrade
    assert fabric.l15[1].lookup(0x5000).state is LineState.SHARED
    assert_lines_own_their_data(fabric)
    assert bytes(l2.lookup(0x5000).data[:4]) == (0x11111111).to_bytes(4, "little")

    a.store(0x5000, 4, 0x22222222)  # M again in tile 1
    a.store(0x5000, 4, 0x33333333)  # a store hit
    assert bytes(l2.lookup(0x5000).data[:4]) == (0x11111111).to_bytes(4, "little")

    stride = 128 * 16  # one way of the 4-way, 128-set private cache
    for i in range(1, 5):  # four more lines in 0x5000's set evict it
        a.load(0x5000 + i * stride, 4)
    assert fabric.l15[1].lookup(0x5000) is None
    assert_lines_own_their_data(fabric)
    assert bytes(l2.lookup(0x5000).data[:4]) == (0x33333333).to_bytes(4, "little")


def last_mem_outcome(lines):
    """(serviced, latency) of the last `MEM` trace line."""
    fields = dict(f.split("=", 1) for f in next(
        line for line in reversed(lines) if line.startswith("MEM ")).split()[1:])
    return fields["serviced"], int(fields["latency"])


def test_timing_closure_classification():
    lines = []
    fabric = make_fabric(n_guests=2, jitter=0, trace=lines.append)
    a, b = guest_port(fabric, 1), guest_port(fabric, 2)
    assert a.load(0x9000, 4)[1] == 100
    assert last_mem_outcome(lines) == (SERVICED_DRAM, 100)
    assert a.load(0x9000, 4)[1] == 4
    assert last_mem_outcome(lines) == (SERVICED_L15, 4)
    l2 = fabric.config.timing.l15_to_l2_cycles
    assert b.load(0x9000, 4)[1] == l2
    assert last_mem_outcome(lines) == (SERVICED_L2, l2)


def test_every_hit_returns_the_one_outcome_built_with_the_fabric():
    """A hit returns the fabric's one hit outcome, a miss another that was
    built with the fabric. The outcomes are the ones each access traces."""
    fabric = make_fabric(jitter=1, trace=lambda _line: None)
    outcomes = []
    fabric.trace_mem = lambda now, tile, kind, addr, data, tx: outcomes.append(tx)
    port = guest_port(fabric)
    port.load(0x9000, 4)
    before = fabric.counts()
    port.load(0x9000, 4)
    port.fetch(0x9000)
    port.load(0x9004, 4)
    first, *hits = outcomes
    assert len(hits) == 3 and all(tx is fabric.hit for tx in hits)
    assert first is not fabric.hit and first.serviced_by == SERVICED_DRAM
    assert fabric.hit.latency == fabric.config.timing.l15_hit_cycles
    after = fabric.counts()
    assert {k: after[k] - before[k] for k in after if after[k] != before[k]} == {
        "l15.tile1.data_accesses": 2, "l15.tile1.data_hits": 2,
        "l15.tile1.ifetch_accesses": 1, "l15.tile1.ifetch_hits": 1}


def test_miss_path_refuses_a_tile_that_holds_a_usable_copy():
    """`access` runs only misses: a second copy of a line is never installed."""
    fabric = make_fabric()
    guest_port(fabric).load(LINE, 4)  # tile 1 holds the line Shared
    before = fabric.counts()
    for kind in ("load", "ifetch"):
        with pytest.raises(SimError, match="which tile 1 holds"):
            fabric.access(1, kind, LINE, 4)
    assert fabric.counts() == before
    line, tx = fabric.access(1, "store", LINE, 4)  # a Shared copy is upgraded
    assert line.state is LineState.MODIFIED and tx.serviced_by == SERVICED_L2
    with pytest.raises(SimError, match="which tile 1 holds"):
        fabric.access(1, "store", LINE, 4)
    assert list(fabric.l15[1].resident_lines()) == [line]
    fabric.check_global_invariants()


@pytest.mark.parametrize("op", ["fetch", "load", "store"])
def test_port_rejects_a_misaligned_access(op):
    fabric = make_fabric()
    port = guest_port(fabric)
    with pytest.raises(SimError, match=r"width-aligned \(0x1002/4\)"):
        if op == "fetch":
            port.fetch(0x1002)
        elif op == "load":
            port.load(0x1002, 4)
        else:
            port.store(0x1002, 4, 0)
    assert set(fabric.counts().values()) == {0}


def test_port_rejects_tile_outside_fabric():
    fabric = make_fabric()
    for tile in (fabric.n_tiles, -1):
        with pytest.raises(ConfigError, match=rf"tile {tile}\b"):
            FabricPort(fabric, tile)
    assert set(fabric.counts().values()) == {0}
    assert all(not list(slice_.resident_lines()) for slice_ in fabric.l2)


def test_stats_hits_plus_misses_equals_accesses():
    fabric = make_fabric()
    port = guest_port(fabric)
    rng = random.Random(1)
    for _ in range(200):
        addr = rng.randrange(0, 0x4000) & ~3
        if rng.random() < 0.5:
            port.load(addr, 4)
        else:
            port.store(addr, 4, rng.getrandbits(32))
    s = fabric.counts()
    assert s["l15.tile1.data_accesses"] == 200
    assert s["l15.tile1.data_hits"] + s["l15.tile1.data_misses"] == 200
    fabric.check_global_invariants()


# -- data-value invariant vs an independent flat model ---------------------------


@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3),  # tile (up to 3 guests)
            st.booleans(),  # store?
            st.integers(min_value=0, max_value=63),  # which word of a small pool
            st.integers(min_value=0, max_value=0xFFFFFFFF),
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_loads_return_last_store_in_coherence_order(ops):
    fabric = make_fabric(n_guests=3, jitter=1)
    ports = {t: guest_port(fabric, t) for t in (1, 2, 3)}
    flat = {}  # independent model: word address -> value
    for tile, is_store, slot, value in ops:
        addr = 0x6000 + slot * 4
        if is_store:
            ports[tile].store(addr, 4, value)
            flat[addr] = value
        else:
            got, _ = ports[tile].load(addr, 4)
            assert got == flat.get(addr, 0)
    fabric.check_global_invariants()


def test_small_pool_hammering_keeps_invariants(tmp_path):
    fabric = make_fabric(n_guests=2, jitter=1)
    ports = [guest_port(fabric, 1), guest_port(fabric, 2)]
    rng = random.Random(42)
    flat = {}
    # pool sized to force L1.5 and L2 conflict evictions (64KB slice / small pool)
    pool = [0x10000 + i * 16 for i in range(64)] + [0x10000 + 128 * 16 * w for w in range(8)]
    for _ in range(3000):
        port = rng.choice(ports)
        addr = rng.choice(pool)
        if rng.random() < 0.5:
            value = rng.getrandbits(32)
            port.store(addr, 4, value)
            flat[addr] = value
        else:
            got, _ = port.load(addr, 4)
            assert got == flat.get(addr, 0)
    fabric.check_global_invariants()
