"""Multicycle RV32I guest core.

The core is held in reset until a start interrupt arrives, then executes
instructions strictly serially, fetch then execute. Each advances the cycle
counter by

    fetch latency + execution cycles (per instruction class) + data latency

where data latency is nonzero only for loads and stores. The two cycle-counter
CSRs sample the counter at the instruction's retire point; CSR reads carry zero
execution cycles, so a read costs exactly its fetch (this is what makes the
bracketed memory-latency probe arithmetic exact: 4 + 5 + 4 + 4 = 17 for a
cached load between two counter reads).

No privileged state exists. ecall/ebreak, undecodable words, misaligned
accesses, unknown CSRs and memory faults all halt the core with a trap reason;
there is no trap handler to vector to.

A block is the run of instructions from a pc to the first load, store,
branch, jump, system op or undecodable word, or to the end of the pc's line.
Only that last one can touch memory, jump, read the counter or trap, and the
counters are committed before it runs. Given a budget, a step runs a chain of
blocks: it dispatches the block at the pc if the pc's line is in the port's
L1.5 and it and the data-value shadow hold the block's bytes, which keeps a
store over code exact; one LRU move and one ifetch hit per instruction stand
for the fetches, all hits on that line before the one data access. It goes on
to the next pc's block, through line ends, load hits, branches and jumps, and
stops after a store, a system op, a trap or any L1.5 miss, or before an
instruction that would start `budget` or more cycles after the first. Until
then only the core's own loads run, which neither write nor fill a line, so a
block the step has already compared is not compared again; it still makes
its LRU move and counts its hits. A pc whose block cannot be dispatched, and
every pc with no budget (a traced run, whose every fetch keeps its `MEM`
line), runs one instruction, fetched through the port, which ends the chain.
The blocks, a dict by pc, are the one decode cache: each instruction is
decoded once, into a handler bound to its operands as ints; an ALU op is one
`operator` function call, masked to 32 bits.

A core owns one StepResult and `step` rewrites all of its fields and returns
it, so a result is valid until the next step. Its cycles, summed over the
step's instructions, split exactly into fetch + execution + data.
"""

from __future__ import annotations

import enum
import operator
from bisect import bisect_left
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
    last_start: int = 0  # when the step's last instruction started, in cycles after its first


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
        self.hit_cycles = t.l15_hit_cycles  # a block's fetches all hit
        self._blocks: dict[int, tuple] = {}  # pc -> the block that starts there, see _build
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

    def step(self, budget: int | None = None) -> StepResult:
        """Run a chain of blocks from the pc, only those of their instructions
        that start less than `budget` cycles after the first; with no budget,
        a traced fabric or a block that cannot be dispatched, run one
        instruction. Requires run_state == RUNNING. Returns the core's one
        StepResult, valid until the next step."""
        if self.run_state is not RUNNING:
            raise SimError(f"step() while {self.run_state.value}")
        pc, r, port, blocks = self.pc, self.result, self.port, self._blocks
        chain = budget and not port.fabric.trace  # a traced fetch keeps its MEM line
        if chain:
            hit, mask, counts = port.l15.hit, port.fabric.line_mask, port.counts
            misses, compared = counts[5], set()  # data misses before the step; the pcs it compared
        used = fetch = data = 0  # cycles of the chain's blocks so far, its fetch and data part
        while True:
            block = blocks.get(pc)
            line = hit(pc & mask, False) if chain and not pc & 3 else None  # the block's LRU move
            try:
                # once per step: until the chain ends, no store or fill changes a line
                if line is not None and pc not in compared:
                    at = pc - line.addr
                    if block is None or not block[3] or not line.data.startswith(block[0], at):
                        block = blocks[pc] = self._build(pc, line.data[at:], True)
                    shadow = port.fabric.shadow
                    if shadow is None or shadow.startswith(block[0], pc):
                        compared.add(pc)
                    else:
                        line = None  # fetch one at a time, up to the word the data check fails on
                if line is not None:
                    starts, left = block[2], budget - used
                    n = len(starts) if left > starts[-1] else bisect_left(starts, left)
                    counts[0] += n  # ifetch_accesses
                    counts[1] += n  # ifetch_hits
                    f, body = self.hit_cycles, starts[n - 1]
                else:
                    n, f, body = 1, 0, 0  # instructions run, each one's fetch, cycles before last
                    if pc & 0x3:
                        raise _Trap(f"misaligned fetch 0x{pc:08x}")
                    try:
                        word, f = port.fetch(pc)
                    except MemoryFault as fault:
                        raise _Trap(f"fetch fault: {fault}") from fault
                    code = word.to_bytes(4, "little")
                    if block is None or not block[0].startswith(code):
                        block = blocks[pc] = self._build(pc, code, False)
                steps = block[1]
                if n > 1:
                    regs = self.regs
                    for handler, _ in steps[: n - 1]:  # straight-line: none traps or jumps
                        handler(self, pc, 0)
                        regs[0] = 0
                        pc += 4
                    self.cycle_counter += body  # so the last one's CSR read or trap sees it
                    self.instret += n - 1
                handler, e_cycles = steps[n - 1]
                r.data_cycles = 0  # a load or store handler sets its own
                cycles = f + e_cycles
                pc_next = handler(self, pc, cycles)
            except _Trap as trap:
                self.run_state, self.halt_reason = HALTED, f"trap: {trap.reason} @pc=0x{pc:08x}"
                pc_next, cycles, r.data_cycles = pc, trap.cycles, 0
                line = None  # a trap ends the chain
            else:
                self.instret += 1
            self.regs[0] = 0
            pc = pc_next & M32
            d = r.data_cycles
            cycles += d
            self.cycle_counter += cycles
            fetch, data = fetch + n * f, data + d
            last = used + body
            used = last + cycles
            # a store, a system op, a miss or a fallback may change what a later block must see
            if line is None or not block[4] or used >= budget or counts[5] != misses:
                break
        self.pc = pc
        r.cycles, r.fetch_cycles, r.data_cycles, r.last_start = used, fetch, data, last
        r.exec_cycles = used - fetch - data  # the rest: each instruction's execution cycles
        return r

    def _build(self, pc: int, code: bytes, whole: bool) -> tuple:
        """The block at pc, decoded from `code`, the bytes from pc to the end
        of its line, or with `whole` false its first instruction alone: (its
        bytes, its (handler, execution cycles) pairs, when each starts after
        the first if every fetch hits, whole, whether the chain may continue
        after its last instruction: not after a store, a system op or a trap)."""
        steps, starts, t = [], [], 0
        for at in range(0, len(code) if whole else 4, 4):
            try:
                insn = decode(int.from_bytes(code[at : at + 4], "little"), pc + at)
                step = _bind(insn), self.exec_cycles[insn.opclass]
            except DecodeError as err:  # it traps when it runs, after its fetch
                insn, step = None, (_trap(str(err)), 0)
            steps.append(step)
            starts.append(t)
            t += self.hit_cycles + step[1]
            if insn is None or insn.opclass not in _STRAIGHT_LINE:
                break
        chains = insn is not None and insn.opclass not in (OpClass.STORE, OpClass.SYSTEM)
        return bytes(code[: 4 * len(steps)]), tuple(steps), tuple(starts), whole, chains


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
        return _trap(reason)
    return handler


def _trap(reason: str):
    """The handler of an instruction that traps when it runs."""
    def handler(_core, _pc, cycles):
        raise _Trap(reason, cycles)
    return handler


# what a block may run before its last instruction: no data access, jump, CSR read or trap
_STRAIGHT_LINE = frozenset((OpClass.OP, OpClass.OP_IMM, OpClass.LUI, OpClass.AUIPC, OpClass.FENCE))


class _Trap(SimError):
    """Internal: unwinds step() to a halt; carries cycles consumed so far."""

    def __init__(self, reason: str, cycles: int = 0):
        self.reason = reason
        self.cycles = cycles
        super().__init__(reason)
