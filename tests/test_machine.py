"""End-to-end machine runs: the full load/start/service pipeline, determinism,
conservation laws, and the trace replay against the flat-memory oracle."""

import os
import re
from pathlib import Path

import pytest

import flat_oracle
from tilesim import corpus
from tilesim.asm import assemble
from tilesim.config import MachineConfig, MeshConfig
from tilesim.elf import program_to_elf
from tilesim.errors import SimError
from tilesim.machine import Machine
from tilesim.mailbox import OFF_STATUS
from tilesim.rv32.core import RunState


def small_config(**kw):
    cfg = MachineConfig(guest_region_size=256 * 1024, dram_size=2 * 1024 * 1024,
                        stack_size=16 * 1024, **kw)
    cfg.validate()
    return cfg


def guest_blob(source: str, cfg, base=None) -> bytes:
    """The guest runtime then `source`, linked at `base` (default: the guest
    base) with the corpus's standard defines."""
    program = assemble([corpus.read_source("runtime.s"), source],
                       base=cfg.guest_base if base is None else base,
                       defines=corpus.standard_defines(cfg))
    return program_to_elf(program)


def test_hello_world_end_to_end(runs):
    stats = runs("hello").counters  # its stdout and exit status: acceptance criterion 4
    assert stats["guest_trap"] is None
    assert stats["syscalls.count"] == 2  # write + exit
    assert stats["guest_instructions"] > 0


def test_determinism_byte_identical_stats_and_stdout(tmp_path):
    cfg = small_config(seed=12345)
    outputs = []
    for _ in range(2):
        machine = Machine(cfg, binary=corpus.hello_elf(cfg), sandbox_dir=str(tmp_path))
        stats = machine.run()
        outputs.append((bytes(machine.stdout_data), stats.to_json()))
    assert outputs[0] == outputs[1]


def test_different_seed_still_functionally_identical(tmp_path):
    results = []
    for seed in (1, 2):
        cfg = small_config(seed=seed)
        machine = Machine(cfg, binary=corpus.hello_elf(cfg), sandbox_dir=str(tmp_path))
        stats = machine.run()
        results.append((bytes(machine.stdout_data), stats["exit_status"]))
    assert results[0] == results[1]


def test_guest_trap_reported():
    cfg = small_config()
    machine = Machine(cfg, binary=guest_blob("main: ecall", cfg))
    stats = machine.run()
    assert stats["exit_status"] is None
    assert "ecall" in stats["guest_trap"]


def run_wedged_guest(trace_path=None):
    """A guest that never calls the host: the untraced run charges its host's
    polls in bulk, the traced one polls one by one. Both stop with both
    clocks past the limit."""
    cfg = small_config()
    cfg.sim_cycle_limit = 20_000
    machine = Machine(cfg, binary=guest_blob("main: j main", cfg), trace_path=trace_path)
    with pytest.raises(SimError, match="cycle limit"):
        machine.run()
    assert min(machine.host.time, machine.guest.time) > cfg.sim_cycle_limit


def test_cycle_limit_guards_wedged_guest():
    run_wedged_guest()


def test_cycle_limit_guards_wedged_guest_traced():
    run_wedged_guest(trace_path=os.devnull)


def test_stats_conservation_laws(runs, config):
    stats = runs("hello").counters
    # no message loss or duplication
    for ch in (1, 2, 3):
        assert stats[f"noc.ch{ch}.injected"] == stats[f"noc.ch{ch}.delivered"]
    # blocking protocol: every request is answered exactly once
    assert stats["noc.ch1.injected"] == stats["noc.ch2.injected"]
    # per-level hit/miss arithmetic
    for tile in range(len(config.tiles)):
        for side in ("ifetch", "data"):
            acc = stats[f"l15.tile{tile}.{side}_accesses"]
            hit = stats[f"l15.tile{tile}.{side}_hits"]
            miss = stats[f"l15.tile{tile}.{side}_misses"]
            assert acc == hit + miss
        lookups = stats[f"l2.tile{tile}.lookups"]
        assert lookups == stats[f"l2.tile{tile}.hits"] + stats[f"l2.tile{tile}.misses"]


def test_syscall_roundtrip_measured(tmp_path):
    cfg = small_config(poll_interval=10)
    machine = Machine(cfg, binary=corpus.hello_elf(cfg), sandbox_dir=str(tmp_path))
    stats = machine.run()
    assert stats["syscalls.count"] == 2
    # the exit request never returns to EMPTY; only write's roundtrip counts
    assert stats["syscalls.roundtrip_cycles"] > 0


def test_poll_interval_affects_roundtrip(tmp_path):
    cycles = {}
    for interval in (5, 500):
        cfg = small_config(poll_interval=interval)
        machine = Machine(cfg, binary=corpus.hello_elf(cfg), sandbox_dir=str(tmp_path))
        stats = machine.run()
        cycles[interval] = stats["syscalls.roundtrip_cycles"]
    assert cycles[500] > cycles[5]


def test_trace_replays_against_flat_memory_oracle(runs):
    checked, loads = flat_oracle.replay_file(str(runs("hello", traced=True).trace))
    assert loads > 100  # instruction fetches + data
    assert checked > loads


def test_trace_mismatch_is_detected(tmp_path):
    """The oracle itself must be able to fail (no vacuous pass)."""
    lines = [
        "MEM cycle=1 tile=1 kind=store addr=0x00001000 width=4 value=0x01020304"
        " serviced=L15 latency=4",
        "MEM cycle=2 tile=1 kind=load addr=0x00001000 width=4 value=0xffffffff"
        " serviced=L15 latency=4",
    ]
    with pytest.raises(flat_oracle.ReplayMismatch):
        flat_oracle.replay(lines)


def test_interrupt_wakes_guest_after_routed_delay():
    cfg = small_config()
    machine = Machine(cfg, binary=guest_blob("main: li a0, 0\n ret", cfg))
    guest = machine.guest
    assert guest.core.run_state is RunState.HELD_IN_RESET
    machine.run()
    assert guest.core.instret > 0
    assert machine.exit_status == 0


@pytest.fixture(scope="module")
def hello_on(tmp_path_factory):
    """hello on small_config with one of LAYOUTS, run once per layout:
    hello_on(layout) -> (machine, stats)."""
    done = {}

    def run(layout):
        if layout not in done:
            cfg = small_config(**LAYOUTS[layout])
            sandbox = str(tmp_path_factory.mktemp(layout))
            machine = Machine(cfg, binary=corpus.hello_elf(cfg), sandbox_dir=sandbox)
            done[layout] = machine, machine.run()
        return done[layout]

    return run


def test_2x2_mesh_with_idle_extra_guest(hello_on):
    """Tiles beyond the first guest stay in reset; the run is unaffected."""
    machine, stats = hello_on("2x2-idle-guest")
    assert machine.config.mesh == MeshConfig(width=2, height=2)
    assert machine.config.tiles == ["host-agent", "guest-rv32", "guest-rv32"]
    assert stats["exit_status"] == 0
    assert bytes(machine.stdout_data) == b"hello\n"
    assert machine.guest.tile == 1  # the only guest agent: tile 2 runs nothing
    tile2 = {key: n for key, n in stats.counters.items() if key.startswith("l15.tile2.")}
    assert tile2 and not any(tile2.values())


def documented_stats_keys(n_tiles: int) -> set[str]:
    """Expand the key patterns of docs/abi.md's statistics schema: `{a,b}`
    alternatives, `tileN` over every tile and `chN` over the three channels."""
    abi = (Path(__file__).parent.parent / "docs" / "abi.md").read_text(encoding="utf-8")
    section = abi.split("\n## Statistics schema\n", 1)[1].split("\n## ", 1)[0]
    patterns = re.findall(r"`([a-z][a-z0-9_.{},N]*)`", section)
    ranges = {"tileN": [f"tile{t}" for t in range(n_tiles)],
              "chN": [f"ch{ch}" for ch in (1, 2, 3)]}

    def expand(pattern):
        m = re.search(r"\{([^}]*)\}|tileN|chN", pattern)
        if m is None:
            return [pattern]
        options = ranges.get(m.group(0)) or m.group(1).split(",")
        return [key for option in options
                for key in expand(pattern[:m.start()] + option + pattern[m.end():])]

    return {key for pattern in patterns for key in expand(pattern)}


LAYOUTS = {
    "default": {},
    "2x2-idle-guest": {"mesh": MeshConfig(width=2, height=2),
                       "tiles": ["host-agent", "guest-rv32", "guest-rv32"]},
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_stats_keys_match_the_documented_schema(layout, hello_on):
    machine, stats = hello_on(layout)
    assert set(stats.counters) == documented_stats_keys(len(machine.config.tiles))


def test_mailbox_address_agrees_everywhere(tmp_path):
    cfg = small_config()
    cfg.guest_region_size = 192 * 1024  # not the default, nor small_config's
    mailbox = corpus.standard_defines(cfg)["MAILBOX_BASE"]
    assert mailbox != MachineConfig().region.mailbox_addr
    machine = Machine(cfg, binary=corpus.hello_elf(cfg), sandbox_dir=str(tmp_path))
    assert list(machine.fabric.watches) == [mailbox + OFF_STATUS]  # the status watch
    machine.run()
    assert bytes(machine.stdout_data) == b"hello\n"
    assert machine.host.mailbox.base == mailbox


def test_second_start_interrupt_is_recorded_noop():
    cfg = small_config()
    machine = Machine(cfg, binary=guest_blob("main: li a0, 7\n ret", cfg))
    # release the guest by hand at cycle 1, before the host boots, so the
    # host's own start is the second
    machine.guest.wake(1)
    stats = machine.run()
    assert stats["exit_status"] == 7
    assert machine.guest.core.ignored_start_interrupts >= 1
