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

Each instruction word is decoded once, into a handler bound to its operands
as ints (registers, the masked immediate), kept in a dict from word to
(handler, execution cycles) that a step dispatches from; an ALU
op is one `operator` function call, masked to 32 bits. Every step still
fetches through the port, so fetch timing and the word come from memory.
Keyed by word, not by pc, the dict needs no invalidation: after a store over
code the next fetch returns the new word, decoded on first sight like any
other. A word that fails to decode is not kept; it traps each time.

A core owns one StepResult and `step` rewrites all of its fields and returns
it, so a result is valid until the next step. Its cycles split exactly into
fetch + execution + data, trapping steps included.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field

from ..config import TimingConfig
from ..errors import DecodeError, MemoryFault, SimError
from .insn import CSR_CYCLE, CSR_CYCLEH, Instruction, OpClass, decode, sext

M32 = 0xFFFFFFFF


class RunState(enum.Enum):
    HELD_IN_RESET = "held-in-reset"
    RUNNING = "running"
    HALTED = "halted"


# per-step code reads these names: Python 3.11 looks `RunState.X` up via the class
HELD_IN_RESET, RUNNING, HALTED = RunState


@dataclass(slots=True)
class StepResult:
    """One step's cycles and their split; a trap halts the core with `halt_reason`."""

    cycles: int
    fetch_cycles: int = 0
    exec_cycles: int = 0
    data_cycles: int = 0


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
    run_state: RunState = HELD_IN_RESET
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
        self._decoded: dict[int, tuple] = {}  # word -> (handler, exec cycles)
        self.result = StepResult(0)

    # -- run-state transitions -------------------------------------------------

    def deliver_start_interrupt(self):
        """Release the core from reset; a second delivery is a recorded no-op."""
        if self.run_state is HELD_IN_RESET:
            self.run_state = RUNNING
            self.pc = self.reset_vector & M32
        else:
            self.ignored_start_interrupts += 1

    # -- stepping ----------------------------------------------------------------

    def step(self) -> StepResult:
        """Execute exactly one instruction; requires run_state == RUNNING.
        Returns the core's one StepResult, valid until the next step."""
        if self.run_state is not RUNNING:
            raise SimError(f"step() while {self.run_state.value}")
        pc = self.pc
        r = self.result
        f_cycles = 0  # the fetch latency charged: none for a misaligned or faulting fetch
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
                entry = self._decoded[word] = (_bind(insn), self.exec_cycles[insn.opclass])
            handler, e_cycles = entry
            r.data_cycles = 0  # a load or store handler sets its own
            cycles = f_cycles + e_cycles
            next_pc = handler(self, pc, cycles)
        except _Trap as trap:
            self.run_state, self.halt_reason = HALTED, f"trap: {trap.reason} @pc=0x{pc:08x}"
            self.cycle_counter += trap.cycles
            r.cycles, r.fetch_cycles, r.exec_cycles = trap.cycles, f_cycles, trap.cycles - f_cycles
            r.data_cycles = 0
            return r
        self.regs[0] = 0
        self.pc = next_pc & M32
        cycles += r.data_cycles
        self.cycle_counter += cycles
        self.instret += 1
        r.cycles, r.fetch_cycles, r.exec_cycles = cycles, f_cycles, e_cycles
        return r


# -- instruction handlers ----------------------------------------------------------

# What each handler applies: an ALU op (on unsigned 32-bit operands, its result
# masked to 32 bits, so a bool gives 0 or 1), a branch test, a load's (width,
# signed) or a store's width. An immediate form shares its base op's semantics:
# addi -> add, sltiu -> sltu.
_ALU = {"add": operator.add, "sub": operator.sub, "xor": operator.xor, "or": operator.or_,
        "and": operator.and_, "sll": operator.lshift, "srl": operator.rshift,
        "sra": lambda a, b: sext(a, 32) >> b, "slt": lambda a, b: sext(a, 32) < sext(b, 32),
        "sltu": operator.lt}
_SEMANTICS = {
    **_ALU,
    **{op: _ALU[op.replace("i", "", 1)]
       for op in ("addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai")},
    "beq": operator.eq, "bne": operator.ne, "bltu": operator.lt, "bgeu": operator.ge,
    "blt": _ALU["slt"], "bge": lambda a, b: sext(a, 32) >= sext(b, 32),
    "lb": (1, True), "lh": (2, True), "lw": (4, False), "lbu": (1, False), "lhu": (2, False),
    "sb": 1, "sh": 2, "sw": 4,
}


def _bind(i: Instruction):
    """The handler of one decoded instruction, its operands bound as ints:
    handler(core, pc, cycles) -> next pc. `cycles` is the fetch plus execution
    cost so far: what a trap charges and the retire point a CSR read samples.
    A load or store writes its data cycles into `core.result`. The immediate is
    bound masked to 32 bits, since every use adds it mod 2^32 or compares it
    unsigned, and the step masks the next pc."""
    op, cls, sem = i.mnemonic, i.opclass, _SEMANTICS.get(i.mnemonic)
    rd, rs1, rs2, imm = i.rd, i.rs1, i.rs2, i.imm & M32
    if cls is OpClass.OP:
        b_mask = 31 if op in ("sll", "srl", "sra") else M32  # shifts take rs2 mod 32
        def handler(core, pc, _cycles):
            regs = core.regs
            regs[rd] = sem(regs[rs1], regs[rs2] & b_mask) & M32
            return pc + 4
    elif cls is OpClass.OP_IMM:
        def handler(core, pc, _cycles):
            regs = core.regs
            regs[rd] = sem(regs[rs1], imm) & M32
            return pc + 4
    elif cls is OpClass.BRANCH:
        def handler(core, pc, _cycles):
            regs = core.regs
            return pc + imm if sem(regs[rs1], regs[rs2]) else pc + 4
    elif cls is OpClass.LUI:
        def handler(core, pc, _cycles):
            core.regs[rd] = imm
            return pc + 4
    elif cls is OpClass.AUIPC:
        def handler(core, pc, _cycles):
            core.regs[rd] = (pc + imm) & M32
            return pc + 4
    elif cls is OpClass.JAL:
        def handler(core, pc, _cycles):
            core.regs[rd] = (pc + 4) & M32
            return pc + imm
    elif cls is OpClass.JALR:  # clears bit 0 of the target
        def handler(core, pc, _cycles):
            regs = core.regs
            target = (regs[rs1] + imm) & ~1
            regs[rd] = (pc + 4) & M32
            return target
    elif cls is OpClass.LOAD:
        (width, signed), bits = sem, sem[0] * 8
        def handler(core, pc, cycles):
            addr = (core.regs[rs1] + imm) & M32
            if addr % width:
                raise _Trap(f"misaligned load 0x{addr:08x}", cycles)
            try:
                value, core.result.data_cycles = core.port.load(addr, width)
            except MemoryFault as fault:
                raise _Trap(f"load fault: {fault}", cycles) from fault
            core.regs[rd] = sext(value, bits) & M32 if signed else value
            return pc + 4
    elif cls is OpClass.STORE:
        width, mask = sem, (1 << sem * 8) - 1
        def handler(core, pc, cycles):
            addr = (core.regs[rs1] + imm) & M32
            if addr % width:
                raise _Trap(f"misaligned store 0x{addr:08x}", cycles)
            try:
                core.result.data_cycles = core.port.store(addr, width, core.regs[rs2] & mask)
            except MemoryFault as fault:
                raise _Trap(f"store fault: {fault}", cycles) from fault
            return pc + 4
    elif cls is OpClass.FENCE:  # one memory port, strictly ordered
        def handler(_core, pc, _cycles):
            return pc + 4
    else:
        # Only pure reads of the cycle counter are legal: csrrs/csrrc with rs1=x0 (or
        # zimm=0) never write; anything else writes a read-only counter or no CSR.
        if op in ("ecall", "ebreak"):
            reason = op
        elif op in ("csrrw", "csrrwi") or rs1 != 0:
            reason = f"csr write attempt ({op})"
        elif i.csr not in (CSR_CYCLE, CSR_CYCLEH):
            reason = f"csr 0x{i.csr:03x} not implemented"
        else:
            shift = 0 if i.csr == CSR_CYCLE else 32
            def handler(core, pc, cycles):
                # retire-point sample: the counter including this instruction's own cost
                core.regs[rd] = ((core.cycle_counter + cycles) >> shift) & M32
                return pc + 4
            return handler
        def handler(_core, _pc, cycles):
            raise _Trap(reason, cycles)
    return handler


class _Trap(SimError):
    """Internal: unwinds step() to a halt; carries cycles consumed so far."""

    def __init__(self, reason: str, cycles: int = 0):
        self.reason = reason
        self.cycles = cycles
        super().__init__(reason)
