"""Litmus tests and exhaustive interleaving exploration vs the SC oracle."""

import pytest

import sc_oracle
from coherence_paths import watch_coherence_paths
from tilesim import litmus
from tilesim.config import GUEST_RV32, HOST_AGENT, CacheGeometry, MachineConfig, MeshConfig
from tilesim.errors import SimError
from tilesim.litmus import Op, TESTS, explore, run_litmus
from tilesim.mem.fabric import FabricPort, MemoryFabric
from tilesim.noc import Noc


def to_oracle_programs(programs):
    out = []
    for program in programs:
        ops = []
        for op in program:
            ops.append(("st", op.addr, op.value) if op.kind == "st" else ("ld", op.addr))
        out.append(ops)
    return out


@pytest.mark.parametrize("name", sorted(TESTS))
def test_outcome_sets_equal_sequential_consistency(name):
    test = TESTS[name]
    observed = explore(test.programs)
    expected = sc_oracle.enumerate_sc(to_oracle_programs(test.programs))
    assert observed == expected


@pytest.mark.parametrize("name", sorted(TESTS))
def test_no_forbidden_outcomes(name):
    report = run_litmus(name)
    assert report["forbidden_count"] == 0
    assert report["forbidden_seen"] == []


def test_exhaustive_enumeration_is_deterministic():
    a = run_litmus("mp")
    b = run_litmus("mp")
    assert a == b


def test_two_simultaneous_ownership_requests_both_complete():
    """Two stores to one line from two cores: every interleaving finishes with
    the later store's value visible (directory serializes by arrival)."""
    x = 0x9000
    programs = [[Op("st", x, 1), Op("ld", x)], [Op("st", x, 2), Op("ld", x)]]
    observed = explore(programs)
    expected = sc_oracle.enumerate_sc(to_oracle_programs(programs))
    assert observed == expected
    for outcome in observed:
        assert outcome[0] in (1, 2) and outcome[1] in (1, 2)


def test_three_agents_two_lines_no_stuck_state():
    x, y = 0x9000, 0x9040
    programs = [
        [Op("st", x, 1), Op("ld", y)],
        [Op("st", y, 2), Op("ld", x)],
        [Op("st", x, 3), Op("st", y, 4)],
    ]
    observed = explore(programs)
    expected = sc_oracle.enumerate_sc(to_oracle_programs(programs))
    assert observed == expected  # and every schedule ran to completion


def test_single_core_store_load_every_interleaving():
    observed = explore(TESTS["corr"].programs)
    assert observed == {(5,)}


def test_explorer_rejects_oversized_programs():
    big = [[Op("st", 0x9000, i) for i in range(5)], [Op("ld", 0x9000)] * 5]
    with pytest.raises(SimError, match="desk scale"):
        explore(big)


def test_interleaving_count_is_exhaustive():
    report = run_litmus("sb")
    assert report["interleavings"] == 6  # C(4,2): all interleavings of 2+2 ops


def test_tiny_fabric_evictions_every_interleaving(monkeypatch):
    """Two guests on a fabric too small for three lines: a direct-mapped one-line
    L1.5 and one-set two-way L2 slices, with x, y and z all homed on tile 0.
    Every one of the 70 interleavings evicts, so the outcome set checks the
    recall, invalidate and writeback paths against the SC oracle."""
    x, y, z = 0x9000, 0x9030, 0x9060
    programs = [[Op("st", x, 1), Op("st", y, 2), Op("ld", z), Op("ld", x)],
                [Op("st", z, 3), Op("ld", x), Op("ld", y), Op("st", x, 4)]]
    watched = []  # per fabric, the coherence paths its run reached

    def tiny_machine(n_agents):
        tiles = [HOST_AGENT] + [GUEST_RV32] * n_agents
        cfg = MachineConfig(
            tiles=tiles,
            mesh=MeshConfig(width=len(tiles), height=1),
            cache=CacheGeometry(l15_size_bytes=16, l15_associativity=1, line_size_bytes=16,
                                l2_slice_size_bytes=32, l2_associativity=2),
            dram_size=1 << 20,
            guest_region_size=128 * 1024,
            stack_size=4096,
        )
        cfg.validate()
        fabric = MemoryFabric(cfg, Noc(cfg.mesh, len(tiles)))
        assert {fabric.home_of(a) for a in (x, y, z)} == {0}
        watched.append(watch_coherence_paths(fabric))
        return fabric, [FabricPort(fabric, tile) for tile in range(1, n_agents + 1)]

    monkeypatch.setattr(litmus, "_mini_machine", tiny_machine)
    observed = explore(programs)
    assert len(watched) == 70
    assert observed == sc_oracle.enumerate_sc(to_oracle_programs(programs))
    assert set().union(*watched) >= {"Downgrade:M", "Invalidate:M", "Invalidate:S",
                                     "Invalidate:stale", "L2 recall:M", "L2 recall:S",
                                     "L2 recall:I", "Writeback"}
