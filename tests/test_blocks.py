"""Block dispatch: an untraced guest step runs a chain of straight-line blocks.

A block runs the instructions from a pc to the first load, store, branch, jump
or system op, or to the end of the line. `Rv32Core.step(budget)` runs blocks
back to back until a store, a system op, a trap, an L1.5 miss or a
single-instruction fallback, stopping before any instruction that would start
`budget` or more cycles after the first; `Machine.run` bounds it by the host's
next step and by the cycle limit. A traced run steps one instruction at a
time, so it is the reference here: a chain must change nothing that single
steps would not.
"""

import os

import pytest

from runs import perfbench
from test_fuzz_cosim import word
from tilesim import corpus
from tilesim.asm import assemble
from tilesim.config import MachineConfig
from tilesim.elf import program_to_elf
from tilesim.errors import SimError
from tilesim.machine import Machine
from tilesim.rv32.core import Rv32Core

# One 16-byte line holds the store and the word it rewrites. The first pass
# skips the store and runs `target` as a cached block; the second stores a new
# word over `target`'s first instruction and runs it again.
STORE_OVER_BLOCK = f"""
_start:
    li   x5, 0
    li   x7, 0
    la   x31, target
    li   x30, {word("addi x5, x5, 100")}
    j    line
    .balign 16
line:
    beqz x7, target
    sw   x30, 0(x31)
target:
    addi x5, x5, 1
    addi x7, x7, 1
    li   x8, 2
    blt  x7, x8, line
    li   x1, 1
    la   x2, tohost
    sw   x1, 0(x2)
self_loop:
    j    self_loop
    .balign 16
tohost:
    .word 0
"""

# a cycle-counter read ends a block of straight-line instructions; the
# second pass finds the line cached
RDCYCLE_ENDS_BLOCK = """
_start:
    li   x9, 2
    j    go
    .balign 16
go:
    addi x6, x6, 1
    addi x7, x7, 2
    rdcycle x5
    addi x9, x9, -1
    bnez x9, go
    rdcycleh x8
    li   x1, 1
    la   x2, tohost
    sw   x1, 0(x2)
self_loop:
    j    self_loop
    .balign 16
tohost:
    .word 0
"""

# x0 written and then read inside one block; the second pass finds its line cached
X0_MID_BLOCK = """
_start:
    li   x9, 2
    j    go
    .balign 16
go:
    addi x0, x0, 5
    addi x6, x0, 7
    add  x7, x0, x0
    addi x9, x9, -1
    bnez x9, go
    li   x1, 1
    la   x2, tohost
    sw   x1, 0(x2)
self_loop:
    j    self_loop
    .balign 16
tohost:
    .word 0
"""

# A write(1, msg, 3) through the mailbox whose status=REQUESTED store is the
# third instruction of its block, then a release and a tohost write; the
# host's copy of the status line goes with the first argument store, so the
# host is awake around the request.
SYSCALL_MID_BLOCK = """
_start:
    li   t0, {mailbox}
    li   a1, 1
    la   a2, msg
    li   a3, 3
    li   a0, 64
    sw   a1, 8(t0)
    sw   a2, 12(t0)
    sw   a3, 16(t0)
    sw   a0, 4(t0)
    j    request
    .balign 16
request:
    fence
    li   t1, 1
    sw   t1, 0(t0)
spin:
    lw   t1, 0(t0)
    li   t2, 2
    bne  t1, t2, spin
    sw   zero, 0(t0)
    li   x1, 1
    la   x2, tohost
    sw   x1, 0(x2)
self_loop:
    j    self_loop
    .balign 16
tohost:
    .word 0
msg:
    .ascii "hi\\n"
"""


def count_steps(monkeypatch) -> list:
    """Wrap Rv32Core.step; the list gets (pc, budget, instructions retired,
    block length) for each call, the length read from the step's first block.
    A step runs a chain of blocks, so it may retire more than that length."""
    step, calls = Rv32Core.step, []

    def counted(core, budget=None):
        pc, instret = core.pc, core.instret
        result = step(core, budget)
        calls.append((pc, budget, core.instret - instret, len(core._blocks[pc][1])))
        return result

    monkeypatch.setattr(Rv32Core, "step", counted)
    return calls


def build(source: str, config: MachineConfig):
    """The program's ELF and its symbols."""
    prog = assemble(source.format(mailbox=config.region.mailbox_addr), base=config.guest_base)
    return program_to_elf(prog), prog.symbols


def run_program(source: str, trace: bool, config: MachineConfig | None = None):
    config = config or MachineConfig()
    config.validate()
    binary, symbols = build(source, config)
    machine = Machine(config, binary=binary, trace_path=os.devnull if trace else None)
    machine.watch_tohost(symbols["tohost"])
    stats = machine.run()
    assert machine.trap is None and machine.tohost_value == 1
    return machine, stats.to_json()


@pytest.mark.parametrize("check_data_values", [True, False])
@pytest.mark.parametrize("trace", [False, True])
def test_store_over_a_later_word_of_the_blocks_line_runs_the_new_word(trace, check_data_values):
    """Without the data-value shadow, only the byte compare at dispatch sees the new word."""
    config = MachineConfig(check_data_values=check_data_values)
    machine, _ = run_program(STORE_OVER_BLOCK, trace, config)
    assert machine.guest.core.regs[5] == 1 + 100


def test_x0_written_mid_block_reads_zero_in_the_same_block(monkeypatch):
    calls = count_steps(monkeypatch)
    machine, _ = run_program(X0_MID_BLOCK, trace=False)
    go = build(X0_MID_BLOCK, MachineConfig())[1]["go"]
    # a step whose first block is go's addi, addi, add, addi ran all four
    assert (go, 4) in [(pc, length) for pc, budget, n, length in calls if budget and n >= length]
    assert machine.guest.core.regs[6:8] == [7, 0]


def test_watched_store_mid_block_sees_its_own_cycle():
    """The status=REQUESTED watch starts the syscall round trip at the store's
    own start, not at its block's."""
    untraced, untraced_stats = run_program(SYSCALL_MID_BLOCK, trace=False)
    traced, traced_stats = run_program(SYSCALL_MID_BLOCK, trace=True)
    assert untraced_stats == traced_stats
    assert bytes(untraced.stdout_data) == b"hi\n"
    assert untraced.syscall_roundtrip_cycles > 0


def test_rdcycle_that_ends_a_block_reads_what_single_steps_read(monkeypatch):
    calls = count_steps(monkeypatch)
    blocks, blocks_stats = run_program(RDCYCLE_ENDS_BLOCK, trace=False)
    go = build(RDCYCLE_ENDS_BLOCK, MachineConfig())[1]["go"]
    assert (go, 3, 3) in [(pc, n, length) for pc, budget, n, length in calls if budget]
    single, single_stats = run_program(RDCYCLE_ENDS_BLOCK, trace=True)
    assert blocks.guest.core.regs == single.guest.core.regs
    assert blocks.guest.core.regs[5] > 0
    assert blocks_stats == single_stats


@pytest.mark.parametrize("trace", [False, True])
def test_a_word_that_differs_from_the_shadow_fails_the_data_check_at_that_word(trace, monkeypatch):
    """A dispatch compares its block with the data-value shadow; on a
    difference single steps fetch up to the word the check fails on."""
    config = MachineConfig()
    config.validate()
    binary, symbols = build(RDCYCLE_ENDS_BLOCK, config)
    target = symbols["go"] + 4  # the second instruction of a cached line
    machine = Machine(config, binary=binary, trace_path=os.devnull if trace else None)
    machine.watch_tohost(symbols["tohost"])
    step = Rv32Core.step

    def corrupting(core, budget=None):
        if core.pc == target:  # flip a bit of the guest's copy, not of memory
            line = machine.fabric.l15[core.port.tile].lookup(target & -16)
            line.data[target - line.addr] ^= 0x80
        return step(core, budget)

    monkeypatch.setattr(Rv32Core, "step", corrupting)
    with pytest.raises(SimError, match=f"data-value check failed at 0x{target:08x}"):
        machine.run()


def test_host_awake_mid_block_gives_the_traced_stats(monkeypatch, tmp_path):
    """sysio's host wakes on the guest's syscall requests, so some untraced
    blocks are cut short by the host's next poll."""
    w = perfbench("workloads").make("sysio", 0)
    config = w.config()
    calls = count_steps(monkeypatch)
    out = {}
    for trace in (None, os.devnull):
        sandbox = w.make_sandbox(str(tmp_path / f"sandbox-{trace is None}"))
        machine = Machine(config, binary=w.build(config), sandbox_dir=sandbox, trace_path=trace)
        out[trace is None] = machine.run().to_json(), bytes(machine.stdout_data)
        if trace is None:
            cut = sum(1 for _, budget, n, length in calls if budget and 0 < n < length)
            assert cut > 0, "no block was cut short by the host's next step"
    assert out[True] == out[False]
    assert out[True][1] == w.expected_stdout


def test_cycle_limit_trips_on_the_same_instruction_traced_and_untraced():
    """Limits across the whole guest run of the syscall program, so that some
    trip while the host sleeps and some while it is awake."""
    config = MachineConfig(guest_region_size=8192, stack_size=1024, dram_size=0x1_0000 + 8192)
    finished, _ = run_program(SYSCALL_MID_BLOCK, False, config)
    binary, symbols = build(SYSCALL_MID_BLOCK, config)
    trips = 0
    for limit in range(finished.guest.woke, finished.guest.time, 2):
        config.sim_cycle_limit = limit
        seen = []
        for trace in (None, os.devnull):
            machine = Machine(config, binary=binary, trace_path=trace)
            machine.watch_tohost(symbols["tohost"])
            try:
                machine.run()
                error = None
            except SimError as err:
                error = str(err)
            seen.append((error, machine.stats().counters))
        assert seen[0] == seen[1], f"sim_cycle_limit={limit}"
        trips += seen[0][0] == f"cycle limit {limit} exceeded (wedged guest?)"
    assert trips > 250


def test_untraced_quicksort_runs_blocks(monkeypatch):
    """Fewer steps than instructions: blocks cannot be switched off silently."""
    calls = count_steps(monkeypatch)
    config = MachineConfig()
    config.validate()
    machine = Machine(config, binary=corpus.bench_elf("quicksort", config))
    stats = machine.run()
    assert machine.exit_status == 0
    assert len(calls) < 0.75 * stats["guest_instructions"]


# -- chains: one step runs blocks back to back -----------------------------------------

# Eight passes over one word: after the first pass's miss every load hits, so
# the last seven passes run in one step, up to the first fetch past the loop.
LOAD_HIT_LOOP = """
_start:
    la   x10, data
    li   x9, 8
    j    loop
    .balign 16
loop:
    lw   x6, 0(x10)
    add  x5, x5, x6
    addi x9, x9, -1
    bnez x9, loop
    li   x1, 1
    la   x2, tohost
    sw   x1, 0(x2)
self_loop:
    j    self_loop
    .balign 16
data:
    .word 3
tohost:
    .word 0
"""

# Each pass loads from a line it has not touched (a miss), stores to a line it
# holds Modified after the first pass (a hit) and reads the counter; each of
# the three ends its step.
CHAIN_ENDS = """
_start:
    la   x10, fresh
    la   x11, scratch
    li   x9, 4
    j    loop
    .balign 16
loop:
    lw   x6, 0(x10)
    addi x10, x10, 16
store:
    sw   x6, 0(x11)
    addi x7, x7, 1
csr:
    rdcycle x8
    addi x9, x9, -1
    bnez x9, loop
    li   x1, 1
    la   x2, tohost
    sw   x1, 0(x2)
self_loop:
    j    self_loop
    .balign 16
tohost:
    .word 0
    .balign 16
scratch:
    .word 0
    .balign 16
fresh:
    .word 1, 2, 3, 4
    .word 5, 6, 7, 8
    .word 9, 10, 11, 12
    .word 13, 14, 15, 16
"""

# Each pass stores, which ends its step, so every step after the first pass
# starts at `next` and chains through `loop`, whose block an earlier step has
# already compared.
STORE_EACH_PASS = """
_start:
    la   x10, scratch
    li   x9, 4
    j    loop
    .balign 16
loop:
    addi x6, x6, 1
    sw   x6, 0(x10)
next:
    addi x9, x9, -1
    bnez x9, loop
    li   x1, 1
    la   x2, tohost
    sw   x1, 0(x2)
self_loop:
    j    self_loop
    .balign 16
tohost:
    .word 0
    .balign 16
scratch:
    .word 0
"""

# The loop's line A shares its L1.5 set (4 ways, 2 KB apart) with the three
# lines it loads from, B, C and D; after the loop a load from E, a fifth line
# of the set, evicts the least recent of them and a load from B follows. From
# the third pass on a chain dispatches every block of the loop again, and only
# the LRU move each of those makes keeps A more recent than B, C and D.
SET_CONFLICT_LOOP = """
_start:
    la   x10, loop
    li   x5, 2048
    add  x11, x10, x5
    add  x12, x11, x5
    add  x13, x12, x5
    add  x14, x13, x5
    li   x9, 4
    j    loop
    .balign 16
loop:
    lw   x6, 0(x11)
    lw   x7, 0(x12)
    lw   x8, 0(x13)
    addi x9, x9, -1
    bnez x9, loop
    lw   x6, 0(x14)
    lw   x6, 0(x11)
    li   x1, 1
    la   x2, tohost
    sw   x1, 0(x2)
self_loop:
    j    self_loop
    .balign 16
tohost:
    .word 0
"""


def run_both(source: str, monkeypatch=None) -> tuple[Machine, list]:
    """The program run untraced, whose steps are counted when `monkeypatch`
    is given, and then traced: both must give the same stats and registers."""
    calls = count_steps(monkeypatch) if monkeypatch else []
    untraced, untraced_stats = run_program(source, trace=False)
    if monkeypatch:
        monkeypatch.undo()
    traced, traced_stats = run_program(source, trace=True)
    assert untraced_stats == traced_stats
    assert untraced.guest.core.regs == traced.guest.core.regs
    return untraced, calls


def test_loop_with_load_hits_runs_as_one_step(monkeypatch):
    machine, calls = run_both(LOAD_HIT_LOOP, monkeypatch)
    loop = build(LOAD_HIT_LOOP, MachineConfig())[1]["loop"]
    # after the first pass's miss: 3, 7 passes of 4, and the first instruction
    # after the loop, whose line is fetched by a miss
    assert (loop + 4, 3 + 7 * 4 + 1) in [(pc, n) for pc, budget, n, _ in calls if budget]
    assert machine.guest.core.regs[5] == 8 * 3


def test_chain_ends_right_after_a_store_a_data_miss_and_a_csr_read(monkeypatch):
    """Each step's last instruction: a step ends at pc + 4 of the load, the
    store or the counter read once per pass, and at no other time."""
    step, ends = Rv32Core.step, []

    def ending(core, budget=None):
        result = step(core, budget)
        ends.append(core.pc)
        return result

    monkeypatch.setattr(Rv32Core, "step", ending)
    run_program(CHAIN_ENDS, trace=False)
    monkeypatch.undo()
    symbols = build(CHAIN_ENDS, MachineConfig())[1]
    for label in ("loop", "store", "csr"):
        assert ends.count(symbols[label] + 4) == 4, label
    run_both(CHAIN_ENDS)


@pytest.mark.parametrize("trace", [False, True])
def test_a_line_corrupted_at_a_later_step_is_caught_in_the_chain(trace, monkeypatch):
    """The step that starts at `next` for the second time chains into `loop`,
    whose line the first such step compared; a flipped bit in the guest's copy
    of `loop` fails the data check there."""
    run_both(STORE_EACH_PASS)
    config = MachineConfig()
    config.validate()
    binary, symbols = build(STORE_EACH_PASS, config)
    machine = Machine(config, binary=binary, trace_path=os.devnull if trace else None)
    machine.watch_tohost(symbols["tohost"])
    step, seen = Rv32Core.step, []

    def corrupting(core, budget=None):
        if core.pc == symbols["next"]:
            seen.append(core.pc)
            if len(seen) == 2:  # flip a bit of the guest's copy, not of memory
                line = machine.fabric.l15[core.port.tile].lookup(symbols["loop"])
                line.data[0] ^= 0x80
        return step(core, budget)

    monkeypatch.setattr(Rv32Core, "step", corrupting)
    with pytest.raises(SimError, match=f"data-value check failed at 0x{symbols['loop']:08x}"):
        machine.run()


def test_repeated_blocks_make_their_lru_moves():
    """With the code line kept most recent, E evicts B and the load from B misses."""
    machine, _ = run_both(SET_CONFLICT_LOOP)
    # B, C and D, then E, B and the tohost store
    assert machine.stats()[f"l15.tile{machine.guest.tile}.data_misses"] == 3 + 3
