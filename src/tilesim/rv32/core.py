"""Multicycle RV32I guest core.

The core is held in reset until a start interrupt arrives, then executes one
instruction per scheduler step, strictly serial fetch-then-execute. Every step
advances the cycle counter by

    fetch latency + execution cycles (per instruction class) + data latency

where data latency is nonzero only for loads and stores. The two cycle-counter
CSRs sample the counter at the instruction's retire point; CSR reads carry zero
execution cycles, so a read costs exactly its fetch (this is what makes the
bracketed memory-latency probe arithmetic exact: 4 + 5 + 4 + 4 = 17 for a
cached load between two counter reads).

No privileged state exists. ecall/ebreak, undecodable words, misaligned
accesses, unknown CSRs and memory faults all halt the core with a trap reason;
there is no trap handler to vector to.

Each instruction word is decoded once, into a dict from word to (handler,
Instruction, execution cycles) that a step dispatches from. Every step still
fetches through the port, so fetch timing and the word come from memory. Keyed
by word, not by pc, the dict needs no invalidation: after a store over code
the next fetch returns the new word, decoded on first sight like any other.
A word that fails to decode is not kept; it traps each time.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from functools import partial

from ..config import TimingConfig
from ..errors import DecodeError, MemoryFault, SimError
from .insn import (
    CSR_CYCLE,
    CSR_CYCLEH,
    Instruction,
    OpClass,
    decode,
    sext,
)

M32 = 0xFFFFFFFF


class RunState(enum.Enum):
    HELD_IN_RESET = "held-in-reset"
    RUNNING = "running"
    HALTED = "halted"


@dataclass(slots=True)
class StepResult:
    cycles: int
    fetch_cycles: int = 0
    exec_cycles: int = 0
    data_cycles: int = 0
    instruction: Instruction | None = None
    trap: str | None = None


@dataclass
class Rv32Core:
    """Architectural state plus the stepping engine.

    `port` is any object with fetch(addr) -> (word, cycles),
    load(addr, width) -> (value, cycles) and store(addr, width, value) -> cycles,
    raising MemoryFault on bad addresses. Values are little-endian-composed
    integers, as the fabric port composes them. Execution cycles per
    instruction class come from `timing` (fetch and data not included).
    """

    port: object
    reset_vector: int = 0x0001_0000
    timing: TimingConfig = field(default_factory=TimingConfig)
    pc: int = 0
    regs: list[int] = field(default_factory=lambda: [0] * 32)
    cycle_counter: int = 0
    run_state: RunState = RunState.HELD_IN_RESET
    halt_reason: str | None = None
    instret: int = 0
    ignored_start_interrupts: int = 0

    def __post_init__(self):
        t = self.timing
        t.validate()
        self.exec_cycles = {
            OpClass.OP: t.alu_cycles, OpClass.OP_IMM: t.alu_cycles,
            OpClass.LUI: t.alu_cycles, OpClass.AUIPC: t.alu_cycles,
            OpClass.BRANCH: t.branch_cycles,  # taken and not-taken
            OpClass.JAL: t.jump_cycles, OpClass.JALR: t.jump_cycles,
            OpClass.FENCE: t.fence_cycles,
            OpClass.SYSTEM: t.system_cycles,  # CSR reads; ecall/ebreak halt anyway
            OpClass.LOAD: t.load_store_exec_cycles, OpClass.STORE: t.load_store_exec_cycles,
        }
        self._decoded: dict[int, tuple] = {}  # word -> (handler, Instruction, exec cycles)

    # -- run-state transitions -------------------------------------------------

    def deliver_start_interrupt(self):
        """Release the core from reset; a second delivery is a recorded no-op."""
        if self.run_state is RunState.HELD_IN_RESET:
            self.run_state = RunState.RUNNING
            self.pc = self.reset_vector & M32
        else:
            self.ignored_start_interrupts += 1

    def halt(self, reason: str):
        self.run_state = RunState.HALTED
        self.halt_reason = reason

    # -- stepping ----------------------------------------------------------------

    def step(self) -> StepResult:
        """Execute exactly one instruction; requires run_state == RUNNING."""
        if self.run_state is not RunState.RUNNING:
            raise SimError(f"step() while {self.run_state.value}")
        pc = self.pc
        try:
            if pc & 0x3:
                raise _Trap(f"misaligned fetch 0x{pc:08x}")
            try:
                word, f_cycles = self.port.fetch(pc)
            except MemoryFault as fault:
                raise _Trap(f"fetch fault: {fault}") from fault
            entry = self._decoded.get(word)
            if entry is None:
                try:
                    insn = decode(word, pc)
                except DecodeError as err:
                    raise _Trap(str(err), f_cycles) from err
                entry = self._decoded[word] = (
                    _HANDLERS[insn.mnemonic], insn, self.exec_cycles[insn.opclass])
            handler, insn, e_cycles = entry
            cycles = f_cycles + e_cycles
            next_pc, d_cycles = handler(self, insn, pc, cycles)
        except _Trap as trap:
            self.halt(f"trap: {trap.reason} @pc=0x{pc:08x}")
            self.cycle_counter += trap.cycles
            return StepResult(cycles=trap.cycles, trap=trap.reason)
        self.regs[0] = 0
        self.pc = next_pc & M32
        self.cycle_counter += cycles + d_cycles
        self.instret += 1
        return StepResult(cycles + d_cycles, f_cycles, e_cycles, d_cycles, insn)


# -- instruction handlers ----------------------------------------------------------
#
# handler(core, insn, pc, cycles) -> (next pc, data cycles). `cycles` is the
# fetch plus execution cost so far: what a trap charges and the retire point a
# CSR read samples. The step masks the next pc to 32 bits.

# ALU semantics on unsigned 32-bit operands; shifts take b mod 32
_ALU = {
    "add": lambda a, b: (a + b) & M32, "sub": lambda a, b: (a - b) & M32,
    "xor": operator.xor, "or": operator.or_, "and": operator.and_,
    "sll": lambda a, b: (a << (b & 31)) & M32, "srl": lambda a, b: a >> (b & 31),
    "sra": lambda a, b: (sext(a, 32) >> (b & 31)) & M32,
    "slt": lambda a, b: int(sext(a, 32) < sext(b, 32)), "sltu": lambda a, b: int(a < b),
}
_BRANCHES = {
    "beq": operator.eq, "bne": operator.ne, "bltu": operator.lt, "bgeu": operator.ge,
    "blt": lambda a, b: sext(a, 32) < sext(b, 32),
    "bge": lambda a, b: sext(a, 32) >= sext(b, 32),
}
_LOADS = {"lb": (1, True), "lh": (2, True), "lw": (4, False), "lbu": (1, False), "lhu": (2, False)}


def _arith(fn, imm, core, i, pc, _cycles):
    regs = core.regs
    regs[i.rd] = fn(regs[i.rs1], i.imm & M32 if imm else regs[i.rs2])
    return pc + 4, 0


def _upper(add_pc, core, i, pc, _cycles):  # lui, auipc
    core.regs[i.rd] = (pc + i.imm if add_pc else i.imm) & M32
    return pc + 4, 0


def _jump(register, core, i, pc, _cycles):  # jal, jalr (which clears bit 0)
    target = (core.regs[i.rs1] + i.imm) & ~1 if register else pc + i.imm
    core.regs[i.rd] = (pc + 4) & M32
    return target, 0


def _branch(taken, core, i, pc, _cycles):
    return (pc + i.imm if taken(core.regs[i.rs1], core.regs[i.rs2]) else pc + 4), 0


def _load(width, signed, core, i, pc, cycles):
    addr = (core.regs[i.rs1] + i.imm) & M32
    if addr % width:
        raise _Trap(f"misaligned load 0x{addr:08x}", cycles)
    try:
        value, d_cycles = core.port.load(addr, width)
    except MemoryFault as fault:
        raise _Trap(f"load fault: {fault}", cycles) from fault
    core.regs[i.rd] = sext(value, width * 8) & M32 if signed else value
    return pc + 4, d_cycles


def _store(width, core, i, pc, cycles):
    addr = (core.regs[i.rs1] + i.imm) & M32
    if addr % width:
        raise _Trap(f"misaligned store 0x{addr:08x}", cycles)
    try:
        d_cycles = core.port.store(addr, width, core.regs[i.rs2] & ((1 << width * 8) - 1))
    except MemoryFault as fault:
        raise _Trap(f"store fault: {fault}", cycles) from fault
    return pc + 4, d_cycles


def _system(core, i, pc, cycles):
    if i.mnemonic in ("ecall", "ebreak"):
        raise _Trap(i.mnemonic, cycles)
    # Only pure reads of the cycle counter are legal: csrrs/csrrc with rs1=x0 (or
    # zimm=0) never write; anything else writes a read-only counter or no CSR.
    if i.mnemonic in ("csrrw", "csrrwi") or i.rs1 != 0:
        raise _Trap(f"csr write attempt ({i.mnemonic})", cycles)
    if i.csr not in (CSR_CYCLE, CSR_CYCLEH):
        raise _Trap(f"csr 0x{i.csr:03x} not implemented", cycles)
    # retire-point sample: the counter including this instruction's own cost
    retired = core.cycle_counter + cycles
    core.regs[i.rd] = (retired if i.csr == CSR_CYCLE else retired >> 32) & M32
    return pc + 4, 0


_HANDLERS = {
    "lui": partial(_upper, False), "auipc": partial(_upper, True),
    "jal": partial(_jump, False), "jalr": partial(_jump, True),
    "fence": lambda _core, _i, pc, _cycles: (pc + 4, 0),  # one memory port, strictly ordered
    **{op: partial(_arith, fn, False) for op, fn in _ALU.items()},
    # an immediate form shares its base op's semantics: addi -> add, sltiu -> sltu
    **{op: partial(_arith, _ALU[op.replace("i", "", 1)], True)
       for op in ("addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai")},
    **{op: partial(_branch, fn) for op, fn in _BRANCHES.items()},
    **{op: partial(_load, width, signed) for op, (width, signed) in _LOADS.items()},
    **{op: partial(_store, width) for op, width in (("sb", 1), ("sh", 2), ("sw", 4))},
    **{op: _system for op in ("ecall", "ebreak", "csrrw", "csrrs", "csrrc",
                              "csrrwi", "csrrsi", "csrrci")},
}


class _Trap(SimError):
    """Internal: unwinds step() to a halt; carries cycles consumed so far."""

    def __init__(self, reason: str, cycles: int = 0):
        self.reason = reason
        self.cycles = cycles
        super().__init__(reason)
