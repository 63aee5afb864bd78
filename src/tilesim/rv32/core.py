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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..config import TimingConfig
from ..errors import DecodeError, MemoryFault, SimError
from .insn import (
    CSR_CYCLE,
    CSR_CYCLEH,
    Instruction,
    LOAD_WIDTHS,
    OpClass,
    STORE_WIDTHS,
    decode,
    sext,
)

M32 = 0xFFFFFFFF


class RunState(enum.Enum):
    HELD_IN_RESET = "held-in-reset"
    RUNNING = "running"
    HALTED = "halted"


@dataclass
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

    @property
    def halted_by_trap(self) -> bool:
        return self.run_state is RunState.HALTED and not (self.halt_reason or "").startswith(
            "exit"
        )

    # -- CSR file ----------------------------------------------------------------

    def read_csr(self, csr: int) -> int:
        """Cycle-counter halves; anything else is a trap (no privileged state)."""
        if csr == CSR_CYCLE:
            return self.cycle_counter & M32
        if csr == CSR_CYCLEH:
            return (self.cycle_counter >> 32) & M32
        raise _Trap(f"csr 0x{csr:03x} not implemented")

    def csr_exists(self, csr: int) -> bool:
        return csr in (CSR_CYCLE, CSR_CYCLEH)

    # -- stepping ----------------------------------------------------------------

    def step(self) -> StepResult:
        """Execute exactly one instruction; requires run_state == RUNNING."""
        if self.run_state is not RunState.RUNNING:
            raise SimError(f"step() while {self.run_state.value}")
        try:
            result = self._step_inner()
        except _Trap as trap:
            self.halt(f"trap: {trap.reason} @pc=0x{self.pc:08x}")
            result = StepResult(cycles=trap.cycles, trap=trap.reason)
        self.cycle_counter += result.cycles
        self.regs[0] = 0
        if result.trap is None:
            self.instret += 1
        return result

    def _step_inner(self) -> StepResult:
        pc = self.pc
        if pc & 0x3:
            raise _Trap(f"misaligned fetch 0x{pc:08x}")
        try:
            word, f_cycles = self.port.fetch(pc)
        except MemoryFault as fault:
            raise _Trap(f"fetch fault: {fault}") from fault
        try:
            insn = decode(word, pc)
        except DecodeError as err:
            raise _Trap(str(err), f_cycles) from err
        e_cycles = self.exec_cycles[insn.opclass]
        d_cycles = 0

        regs = self.regs
        next_pc = (pc + 4) & M32
        op = insn.mnemonic
        cls = insn.opclass

        if cls in (OpClass.OP, OpClass.OP_IMM):
            b = regs[insn.rs2] if cls is OpClass.OP else insn.imm & M32
            regs[insn.rd] = _alu(op, regs[insn.rs1], b)
        elif cls is OpClass.LUI:
            regs[insn.rd] = insn.imm & M32
        elif cls is OpClass.AUIPC:
            regs[insn.rd] = (pc + insn.imm) & M32
        elif cls is OpClass.JAL:
            regs[insn.rd] = next_pc
            next_pc = (pc + insn.imm) & M32
        elif cls is OpClass.JALR:
            target = (regs[insn.rs1] + insn.imm) & M32 & ~1
            regs[insn.rd] = next_pc
            next_pc = target
        elif cls is OpClass.BRANCH:
            if _branch_taken(op, regs[insn.rs1], regs[insn.rs2]):
                next_pc = (pc + insn.imm) & M32
        elif cls is OpClass.LOAD:
            width = LOAD_WIDTHS[op]
            addr = (regs[insn.rs1] + insn.imm) & M32
            if addr % width:
                raise _Trap(f"misaligned load 0x{addr:08x}", f_cycles + e_cycles)
            try:
                value, d_cycles = self.port.load(addr, width)
            except MemoryFault as fault:
                raise _Trap(f"load fault: {fault}", f_cycles + e_cycles) from fault
            if op in ("lb", "lh"):
                value = sext(value, width * 8) & M32
            regs[insn.rd] = value
        elif cls is OpClass.STORE:
            width = STORE_WIDTHS[op]
            addr = (regs[insn.rs1] + insn.imm) & M32
            if addr % width:
                raise _Trap(f"misaligned store 0x{addr:08x}", f_cycles + e_cycles)
            try:
                d_cycles = self.port.store(addr, width, regs[insn.rs2] & ((1 << width * 8) - 1))
            except MemoryFault as fault:
                raise _Trap(f"store fault: {fault}", f_cycles + e_cycles) from fault
        elif cls is OpClass.FENCE:
            pass  # single memory port, strictly ordered: nothing to do
        else:  # SYSTEM
            self._exec_system(insn, f_cycles + e_cycles)

        self.regs[0] = 0
        self.pc = next_pc
        cycles = f_cycles + e_cycles + d_cycles
        return StepResult(cycles, f_cycles, e_cycles, d_cycles, insn)

    def _exec_system(self, insn: Instruction, cycles_so_far: int):
        op = insn.mnemonic
        if op == "ecall":
            raise _Trap("ecall", cycles_so_far)
        if op == "ebreak":
            raise _Trap("ebreak", cycles_so_far)
        # CSR ops: only pure reads of the cycle counter are legal. csrrs/csrrc
        # with rs1=x0 (or zimm=0) never write; everything else would write a
        # read-only counter or a missing CSR.
        writes = op in ("csrrw", "csrrwi") or insn.rs1 != 0
        if writes:
            raise _Trap(f"csr write attempt ({op})", cycles_so_far)
        if not self.csr_exists(insn.csr):
            raise _Trap(f"csr 0x{insn.csr:03x} not implemented", cycles_so_far)
        # retire-point sample: the counter including this instruction's own cost
        retired = self.cycle_counter + cycles_so_far
        self.regs[insn.rd] = (retired if insn.csr == CSR_CYCLE else retired >> 32) & M32


def _alu(op: str, a: int, b: int) -> int:
    sh = b & 31
    if op in ("add", "addi"):
        return (a + b) & M32
    if op == "sub":
        return (a - b) & M32
    if op in ("xor", "xori"):
        return a ^ b
    if op in ("or", "ori"):
        return a | b
    if op in ("and", "andi"):
        return a & b
    if op in ("sll", "slli"):
        return (a << sh) & M32
    if op in ("srl", "srli"):
        return a >> sh
    if op in ("sra", "srai"):
        return (sext(a, 32) >> sh) & M32
    if op in ("slt", "slti"):
        return 1 if sext(a, 32) < sext(b, 32) else 0
    if op in ("sltu", "sltiu"):
        return 1 if a < b else 0
    raise AssertionError(op)


def _branch_taken(op: str, a: int, b: int) -> bool:
    if op == "beq":
        return a == b
    if op == "bne":
        return a != b
    if op == "blt":
        return sext(a, 32) < sext(b, 32)
    if op == "bge":
        return sext(a, 32) >= sext(b, 32)
    if op == "bltu":
        return a < b
    return a >= b  # bgeu


class _Trap(SimError):
    """Internal: unwinds step() to a halt; carries cycles consumed so far."""

    def __init__(self, reason: str, cycles: int = 0):
        self.reason = reason
        self.cycles = cycles
        super().__init__(reason)
