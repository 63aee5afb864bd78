"""Seeded random RV32I programs in lockstep with the flat-memory stepper.

A generator writes each program as assembler source: ALU ops on edge values
and shift amounts, loads and stores of every width over a multi-line buffer,
forward branches, `jal`/`jalr`, cycle-counter reads, and stores that rewrite
an instruction ahead of the pc. Every branch and jump goes forward, so each
program ends: through the rv32ui `tohost` convention, or, in some programs,
on a final misaligned access, cycle-counter write or `ecall`, a trap the
stepper must take too.

Each program runs under `lockstep` (tests/test_cosim.py) on the default
machine and on a layout whose L1.5 holds four lines, so that port hits,
misses, upgrades and evictions interleave, and whose small L2 recalls lines.
A run must stay in lockstep, reach its end, finish with every coherence
invariant holding, and give identical stats traced and untraced.
"""

import random

import pytest

from test_cosim import lockstep
from tilesim.asm import assemble
from tilesim.config import CacheGeometry, MachineConfig
from tilesim.elf import program_to_elf
from tilesim.machine import Machine

SEEDS = range(8)
BODY_ITEMS = 160
BUF_BYTES = 128  # eight 16-byte lines
EDGES = [0, 1, -1, 0x7FFFFFFF, -0x80000000, 2, 31, 32, 33, 63]
REGS = [3, 4, 5, 6, 7, 9] + list(range(10, 30))  # x8 holds the buffer; x1, x30, x31 are links
ALU_RR = ["add", "sub", "xor", "or", "and", "sll", "srl", "sra", "slt", "sltu"]
ALU_RI = ["addi", "xori", "ori", "andi", "slti", "sltiu"]
SHIFT_RI = ["slli", "srli", "srai"]
LOADS = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}
STORES = {"sb": 1, "sh": 2, "sw": 4}
BRANCHES = ["beq", "bne", "blt", "bge", "bltu", "bgeu"]
TRAPS = ["lw x5, 2(x8)", "sh x5, 1(x8)", "csrrw x5, cycle, x6", "ecall"]

LAYOUTS = {
    "default": MachineConfig(),
    "tiny-l15": MachineConfig(cache=CacheGeometry(l15_size_bytes=64, l15_associativity=2,
                                                  l2_slice_size_bytes=256, l2_associativity=2)),
}


def word(text: str) -> int:
    """The encoding of one instruction, as the assembler writes it."""
    return int.from_bytes(assemble(text, base=0).data, "little")


def alu(rng: random.Random) -> str:
    rd, rs1, rs2 = (rng.choice(REGS + [0]) for _ in range(3))
    pick = rng.random()
    if pick < 0.4:
        return f"{rng.choice(ALU_RR)} x{rd}, x{rs1}, x{rs2}"
    if pick < 0.7:
        imm = rng.choice([-2048, -1, 0, 1, 2047, rng.randint(-2048, 2047)])
        return f"{rng.choice(ALU_RI)} x{rd}, x{rs1}, {imm}"
    if pick < 0.9:
        shamt = rng.choice([0, 1, 31, rng.randint(0, 31)])
        return f"{rng.choice(SHIFT_RI)} x{rd}, x{rs1}, {shamt}"
    return f"lui x{rd}, {rng.randint(0, 0xFFFFF)}"


def program(seed: int) -> tuple[str, bool]:
    """The source of one random program, a body of items, each one or a few
    instructions, that only ever jumps forward to another item's label; and
    whether it ends on a trap."""
    rng = random.Random(seed)
    trap = rng.choice(TRAPS + [None] * 4)
    kinds = rng.choices(["alu", "load", "store", "branch", "jal", "jalr", "rdcycle", "patch"],
                        weights=[30, 12, 12, 8, 3, 3, 2, 3], k=BODY_ITEMS)
    body = []
    for i, kind in enumerate(kinds):
        ahead = f"L{rng.randint(i + 1, min(i + 5, BODY_ITEMS))}"
        rs1, rs2, rd = (rng.choice(REGS) for _ in range(3))
        if kind == "alu":
            body.append([alu(rng)])
        elif kind in ("load", "store"):
            op, width = rng.choice(list((LOADS if kind == "load" else STORES).items()))
            reg = f"x{rd}" if kind == "load" else f"x{rs2}"
            body.append([f"{op} {reg}, {rng.randrange(0, BUF_BYTES, width)}(x8)"])
        elif kind == "branch":
            body.append([f"{rng.choice(BRANCHES)} x{rs1}, x{rs2}, {ahead}"])
        elif kind == "jal":
            body.append([f"jal x1, {ahead}"])
        elif kind == "jalr":
            body.append([f"la x31, {ahead}", f"jalr x1, x31, {rng.choice([0, 1])}"])
        elif kind == "rdcycle":
            body.append([f"{rng.choice(['rdcycle', 'rdcycleh'])} x{rd}"])
        else:  # rewrite a later one-instruction ALU item before it runs
            later = [j for j in range(i + 1, BODY_ITEMS) if kinds[j] == "alu"][:8]
            if not later:
                body.append([alu(rng)])
                continue
            target = rng.choice(later)
            body.append([f"la x31, L{target}", f"li x30, {word(alu(rng))}", "sw x30, 0(x31)"])
    lines = ["_start:", "    la x8, buf"]
    lines += [f"    li x{r}, {rng.choice(EDGES + [rng.getrandbits(32)])}" for r in REGS]
    for i, item in enumerate(body):
        lines.append(f"L{i}:")
        lines += [f"    {insn}" for insn in item]
    lines += [f"L{BODY_ITEMS}:", f"    {trap or 'nop'}", "    li x1, 1", "    la x2, tohost",
              "    sw x1, 0(x2)", "self_loop:", "    j self_loop", "    .balign 16", "tohost:",
              "    .word 0", "    .balign 16", "buf:", f"    .space {BUF_BYTES}"]
    return "\n".join(lines) + "\n", trap is not None


def run(config: MachineConfig, source: str, traps: bool, trace_path=None) -> dict:
    prog = assemble(source, base=config.guest_base)
    machine = Machine(config, binary=program_to_elf(prog), trace_path=trace_path)
    machine.watch_tohost(prog.symbols["tohost"])
    ref = lockstep(machine)
    stats = machine.run().counters
    if traps:
        assert machine.trap is not None and machine.tohost_value is None
    else:
        assert machine.trap is None and machine.tohost_value == 1
    assert ref.instret == stats["guest_instructions"] > BODY_ITEMS
    machine.fabric.check_global_invariants()
    return stats


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("seed", SEEDS)
def test_random_program_runs_in_lockstep(seed, layout, tmp_path):
    config = LAYOUTS[layout]
    config.validate()
    source, traps = program(seed)
    untraced = run(config, source, traps)
    trace = tmp_path / "trace.txt"
    assert run(config, source, traps, str(trace)) == untraced
    assert " kind=store " in trace.read_text()
