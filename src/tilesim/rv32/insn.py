"""RV32I instruction decoding.

The guest core implements the 32-bit base integer ISA plus the two cycle-counter
CSR reads; everything else (M/A/F/C patterns, privileged encodings, fence.i)
decodes to DecodeError. Immediates are sign-extended per the instruction format
and stored as Python ints in [-2^31, 2^31).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import DecodeError

CSR_CYCLE = 0xC00
CSR_CYCLEH = 0xC80


class OpClass(enum.Enum):
    LUI = "lui"
    AUIPC = "auipc"
    JAL = "jal"
    JALR = "jalr"
    BRANCH = "branch"
    LOAD = "load"
    STORE = "store"
    OP_IMM = "op-imm"
    OP = "op"
    FENCE = "fence"
    SYSTEM = "system"


@dataclass(frozen=True)
class Instruction:
    opclass: OpClass
    mnemonic: str
    raw: int
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    csr: int = 0

    def __str__(self):
        return f"{self.mnemonic} (0x{self.raw:08x})"


def sext(value: int, bits: int) -> int:
    """Sign-extend the low `bits` of value to a Python int."""
    value &= (1 << bits) - 1
    return value - (1 << bits) if value & (1 << (bits - 1)) else value


_BRANCHES = {0: "beq", 1: "bne", 4: "blt", 5: "bge", 6: "bltu", 7: "bgeu"}
_LOADS = {0: "lb", 1: "lh", 2: "lw", 4: "lbu", 5: "lhu"}
_STORES = {0: "sb", 1: "sh", 2: "sw"}
_OP_IMM = {0: "addi", 2: "slti", 3: "sltiu", 4: "xori", 6: "ori", 7: "andi"}
_OP_F7_0 = {0: "add", 1: "sll", 2: "slt", 3: "sltu", 4: "xor", 5: "srl", 6: "or", 7: "and"}
_OP_F7_32 = {0: "sub", 5: "sra"}
_CSR_OPS = {1: "csrrw", 2: "csrrs", 3: "csrrc", 5: "csrrwi", 6: "csrrsi", 7: "csrrci"}


def decode(word: int, pc: int = 0) -> Instruction:
    """Decode one 32-bit instruction word; raise DecodeError if unsupported."""
    word &= 0xFFFFFFFF
    if word & 0b11 != 0b11:
        raise DecodeError(word, pc)  # 16-bit (compressed) encoding space
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    funct3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    funct7 = word >> 25

    if opcode == 0x37:
        return Instruction(OpClass.LUI, "lui", word, rd=rd, imm=sext(word & 0xFFFFF000, 32))
    if opcode == 0x17:
        return Instruction(OpClass.AUIPC, "auipc", word, rd=rd, imm=sext(word & 0xFFFFF000, 32))
    if opcode == 0x6F:
        imm = (
            ((word >> 31) << 20)
            | (((word >> 12) & 0xFF) << 12)
            | (((word >> 20) & 1) << 11)
            | (((word >> 21) & 0x3FF) << 1)
        )
        return Instruction(OpClass.JAL, "jal", word, rd=rd, imm=sext(imm, 21))
    if opcode == 0x67:
        if funct3 != 0:
            raise DecodeError(word, pc)
        return Instruction(OpClass.JALR, "jalr", word, rd=rd, rs1=rs1, imm=sext(word >> 20, 12))
    if opcode == 0x63:
        if funct3 not in _BRANCHES:
            raise DecodeError(word, pc)
        imm = (
            ((word >> 31) << 12)
            | (((word >> 7) & 1) << 11)
            | (((word >> 25) & 0x3F) << 5)
            | (((word >> 8) & 0xF) << 1)
        )
        return Instruction(
            OpClass.BRANCH, _BRANCHES[funct3], word, rs1=rs1, rs2=rs2, imm=sext(imm, 13)
        )
    if opcode == 0x03:
        if funct3 not in _LOADS:
            raise DecodeError(word, pc)
        return Instruction(
            OpClass.LOAD, _LOADS[funct3], word, rd=rd, rs1=rs1, imm=sext(word >> 20, 12)
        )
    if opcode == 0x23:
        if funct3 not in _STORES:
            raise DecodeError(word, pc)
        imm = ((word >> 25) << 5) | rd
        return Instruction(
            OpClass.STORE, _STORES[funct3], word, rs1=rs1, rs2=rs2, imm=sext(imm, 12)
        )
    if opcode == 0x13:
        if funct3 in _OP_IMM:
            return Instruction(
                OpClass.OP_IMM, _OP_IMM[funct3], word, rd=rd, rs1=rs1, imm=sext(word >> 20, 12)
            )
        # shifts: shamt in the rs2 field, funct7 selects logical/arithmetic
        if funct3 == 1 and funct7 == 0x00:
            return Instruction(OpClass.OP_IMM, "slli", word, rd=rd, rs1=rs1, imm=rs2)
        if funct3 == 5 and funct7 == 0x00:
            return Instruction(OpClass.OP_IMM, "srli", word, rd=rd, rs1=rs1, imm=rs2)
        if funct3 == 5 and funct7 == 0x20:
            return Instruction(OpClass.OP_IMM, "srai", word, rd=rd, rs1=rs1, imm=rs2)
        raise DecodeError(word, pc)
    if opcode == 0x33:
        if funct7 == 0x00 and funct3 in _OP_F7_0:
            name = _OP_F7_0[funct3]
        elif funct7 == 0x20 and funct3 in _OP_F7_32:
            name = _OP_F7_32[funct3]
        else:
            raise DecodeError(word, pc)  # funct7==1 is the M extension
        return Instruction(OpClass.OP, name, word, rd=rd, rs1=rs1, rs2=rs2)
    if opcode == 0x0F:
        if funct3 != 0:
            raise DecodeError(word, pc)  # fence.i is Zifencei, not base RV32I
        return Instruction(OpClass.FENCE, "fence", word, rd=rd, rs1=rs1)
    if opcode == 0x73:
        if funct3 == 0:
            if word == 0x00000073:
                return Instruction(OpClass.SYSTEM, "ecall", word)
            if word == 0x00100073:
                return Instruction(OpClass.SYSTEM, "ebreak", word)
            raise DecodeError(word, pc)  # mret/wfi/... are privileged
        if funct3 in _CSR_OPS:
            # rs1 doubles as the zimm field for the immediate variants
            return Instruction(
                OpClass.SYSTEM, _CSR_OPS[funct3], word, rd=rd, rs1=rs1, csr=word >> 20
            )
        raise DecodeError(word, pc)
    raise DecodeError(word, pc)
