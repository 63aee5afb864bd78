"""Untimed, flat-memory RV32I reference stepper for lockstep co-simulation.

Built only on rvoracle (its table decoder, `alu` and `branch_taken`) and a
flat byte array; it imports nothing from the package, so a fault in the
package's decoder or core cannot hide in both. It has no caches, no clock and
no host: the test driving it mirrors the host's stores into `mem`, and hands
it the core's cycle counter for the cycle-CSR reads it cannot time itself.

Trap rules are the guest core's documented ones: a misaligned fetch, load or
store, an access beyond memory, an undecodable word, ecall/ebreak, and any
CSR access other than a pure read of cycle/cycleh. A trapping step raises
Trap and changes nothing.
"""

import rvoracle

M32 = 0xFFFFFFFF
CSR_CYCLE, CSR_CYCLEH = 0xC00, 0xC80

_LOADS = {"lb": (1, True), "lh": (2, True), "lw": (4, False), "lbu": (1, False), "lhu": (2, False)}
_STORES = {"sb": 1, "sh": 2, "sw": 4}
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")


class Trap(Exception):
    """The instruction at pc traps; the stepper's state is unchanged."""


class FlatCpu:
    def __init__(self, mem_size: int, pc: int):
        self.mem = bytearray(mem_size)
        self.pc = pc
        self.regs = [0] * 32
        self.instret = 0
        self._decoded = {}  # word -> rvoracle.decode(word): the table scan is slow

    def _check(self, addr: int, width: int, what: str):
        if addr % width:
            raise Trap(f"misaligned {what} 0x{addr:08x}")
        if addr + width > len(self.mem):
            raise Trap(f"{what} beyond memory 0x{addr:08x}")

    def _load(self, addr: int, width: int) -> int:
        return int.from_bytes(self.mem[addr : addr + width], "little")

    def step(self, cycle_counter):
        """Execute one instruction. `cycle_counter()` is the 64-bit counter a
        cycle-CSR read at this instruction's retire point returns."""
        pc = self.pc
        self._check(pc, 4, "fetch")
        word = self._load(pc, 4)
        if word not in self._decoded:
            self._decoded[word] = rvoracle.decode(word)
        decoded = self._decoded[word]
        if decoded is None:
            raise Trap(f"undecodable 0x{word:08x}")
        name, ops = decoded
        x = self.regs
        a, b = x[ops.get("rs1", 0)], x[ops.get("rs2", 0)]
        imm = ops.get("imm", 0)
        next_pc = (pc + 4) & M32
        value = None  # what rd receives

        if name == "lui":
            value = imm & M32
        elif name == "auipc":
            value = (pc + imm) & M32
        elif name == "jal":
            value, next_pc = next_pc, (pc + imm) & M32
        elif name == "jalr":
            value, next_pc = next_pc, (a + imm) & M32 & ~1
        elif name in _BRANCHES:
            if rvoracle.branch_taken(name, a, b):
                next_pc = (pc + imm) & M32
        elif name in _LOADS:
            width, signed = _LOADS[name]
            addr = (a + imm) & M32
            self._check(addr, width, "load")
            value = self._load(addr, width)
            if signed and value >> (8 * width - 1):
                value = (value - (1 << 8 * width)) & M32
        elif name in _STORES:
            width = _STORES[name]
            addr = (a + imm) & M32
            self._check(addr, width, "store")
            self.mem[addr : addr + width] = (b & ((1 << 8 * width) - 1)).to_bytes(width, "little")
        elif name == "fence":
            pass
        elif name in ("ecall", "ebreak"):
            raise Trap(name)
        elif name.startswith("csr"):
            source = ops["rs1"] if "rs1" in ops else ops["zimm"]
            if name in ("csrrw", "csrrwi") or source or ops["csr"] not in (CSR_CYCLE, CSR_CYCLEH):
                raise Trap(f"{name} of csr 0x{ops['csr']:03x}")
            counter = cycle_counter()
            value = (counter if ops["csr"] == CSR_CYCLE else counter >> 32) & M32
        else:  # register-register or register-immediate ALU op
            value = rvoracle.alu(name, a, imm if "imm" in ops else b)

        if value is not None and ops["rd"]:
            x[ops["rd"]] = value
        self.pc = next_pc
        self.instret += 1
