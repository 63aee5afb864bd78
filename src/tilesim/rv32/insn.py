"""The RV32I encoding table, read both ways: decode for the core, encode for
the assembler.

`ENCODINGS` gives each mnemonic's format, opcode, funct3 and funct7. The guest
core implements the 32-bit base integer ISA plus the two cycle-counter CSR
reads; everything else (M/A/F/C patterns, privileged encodings, fence.i)
decodes to DecodeError. Immediates are sign-extended per the instruction
format and stored as Python ints in [-2^31, 2^31).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

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


def sext(value: int, bits: int) -> int:
    """Sign-extend the low `bits` of value to a Python int."""
    value &= (1 << bits) - 1
    return value - (1 << bits) if value & (1 << (bits - 1)) else value


class Encoding(NamedTuple):
    fmt: str
    opcode: int  # the whole word for the "fixed" format
    funct3: int | None = None
    funct7: int | None = None

    @property
    def opclass(self) -> OpClass:
        return _OPCLASS[self.opcode & 0x7F]


def _by_funct3(fmt: str, opcode: int, names: str, funct7: int | None = None):
    """One row of mnemonics in funct3 order; "-" marks a funct3 with none."""
    return {name: Encoding(fmt, opcode, funct3, funct7)
            for funct3, name in enumerate(names.split()) if name != "-"}


ENCODINGS = {
    "lui": Encoding("U", 0x37), "auipc": Encoding("U", 0x17),
    "jal": Encoding("J", 0x6F), "jalr": Encoding("I", 0x67, 0),
    **_by_funct3("B", 0x63, "beq bne - - blt bge bltu bgeu"),
    **_by_funct3("I", 0x03, "lb lh lw - lbu lhu"),
    **_by_funct3("S", 0x23, "sb sh sw"),
    **_by_funct3("I", 0x13, "addi - slti sltiu xori - ori andi"),
    **_by_funct3("shift", 0x13, "- slli - - - srli", 0x00),
    "srai": Encoding("shift", 0x13, 5, 0x20),
    **_by_funct3("R", 0x33, "add sll slt sltu xor srl or and", 0x00),
    "sub": Encoding("R", 0x33, 0, 0x20), "sra": Encoding("R", 0x33, 5, 0x20),
    "fence": Encoding("fence", 0x0F, 0),  # fence.i (funct3 1) is Zifencei
    "ecall": Encoding("fixed", 0x00000073), "ebreak": Encoding("fixed", 0x00100073),
    **_by_funct3("CSR", 0x73, "- csrrw csrrs csrrc - csrrwi csrrsi csrrci"),
}

_OPCLASS = {
    0x37: OpClass.LUI, 0x17: OpClass.AUIPC, 0x6F: OpClass.JAL, 0x67: OpClass.JALR,
    0x63: OpClass.BRANCH, 0x03: OpClass.LOAD, 0x23: OpClass.STORE,
    0x13: OpClass.OP_IMM, 0x33: OpClass.OP, 0x0F: OpClass.FENCE, 0x73: OpClass.SYSTEM,
}

# Per format: its register fields (the CSR immediate forms keep zimm in rs1);
# the immediate encode accepts, as (lowest, highest, alignment), signed if the
# lowest is negative; and where the immediate sits, as (immediate bit, word
# bit, width) pieces, lowest first. A CSR's immediate is its number, a fence's
# its predecessor and successor sets.
_FORMATS = {
    "R": (("rd", "rs1", "rs2"), (0, 0, 1), ()),
    "shift": (("rd", "rs1"), (0, 31, 1), ((0, 20, 5),)),
    "I": (("rd", "rs1"), (-2048, 2047, 1), ((0, 20, 12),)),
    "S": (("rs1", "rs2"), (-2048, 2047, 1), ((0, 7, 5), (5, 25, 7))),
    "B": (("rs1", "rs2"), (-4096, 4094, 2), ((1, 8, 4), (5, 25, 6), (11, 7, 1), (12, 31, 1))),
    "U": (("rd",), (-(1 << 31), (1 << 31) - 4096, 4096), ((12, 12, 20),)),
    "J": (("rd",), (-(1 << 20), (1 << 20) - 2, 2),
          ((1, 21, 10), (11, 20, 1), (12, 12, 8), (20, 31, 1))),
    "CSR": (("rd", "rs1"), (0, 0xFFF, 1), ((0, 20, 12),)),
    "fence": (("rd", "rs1"), (0, 0xFFF, 1), ((0, 20, 12),)),
    "fixed": ((), (0, 0, 1), ()),
}
_REG_SHIFT = {"rd": 7, "rs1": 15, "rs2": 20}


def _fixed_bits(enc: Encoding) -> tuple[int, int]:
    """(mask, match) of the bits an encoding fixes: the whole word, or the
    opcode with funct3 and funct7 where it has them."""
    if enc.fmt == "fixed":
        return 0xFFFFFFFF, enc.opcode
    f3, f7 = enc.funct3, enc.funct7
    return (0x7F | (f3 is not None) * 0x7000 | (f7 is not None) * 0xFE000000,
            enc.opcode | (f3 or 0) << 12 | (f7 or 0) << 25)


_FIXED = {name: _fixed_bits(enc) for name, enc in ENCODINGS.items()}
# decode's lookup: per mask, most fixed bits first, match -> mnemonic
_LOOKUP = [(mask, {match: name for name, (m, match) in _FIXED.items() if m == mask})
           for mask in sorted({mask for mask, _ in _FIXED.values()}, reverse=True)]


def decode(word: int, pc: int = 0) -> Instruction:
    """Decode one 32-bit instruction word; raise DecodeError if unsupported."""
    word &= 0xFFFFFFFF
    for mask, names in _LOOKUP:
        name = names.get(word & mask)
        if name is not None:
            break
    else:
        raise DecodeError(word, pc)
    enc = ENCODINGS[name]
    regs, (lo, _, _), pieces = _FORMATS[enc.fmt]
    fields = {reg: (word >> _REG_SHIFT[reg]) & 0x1F for reg in regs}
    imm = 0
    for imm_bit, word_bit, width in pieces:
        imm |= ((word >> word_bit) & ((1 << width) - 1)) << imm_bit
    if lo < 0:  # the last piece holds the sign bit
        imm = sext(imm, imm_bit + width)
    if enc.fmt == "CSR":
        fields["csr"] = imm
    elif enc.fmt != "fence":  # no pred/succ: one memory port, strictly ordered
        fields["imm"] = imm
    return Instruction(enc.opclass, name, word, **fields)


def encode(name: str, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0) -> int:
    """Pack one instruction into its word; raise ValueError naming the
    mnemonic if it has none or a field does not fit its format."""
    enc = ENCODINGS.get(name)
    if enc is None:
        raise ValueError(f"unknown instruction {name!r}")
    regs, (lo, hi, align), pieces = _FORMATS[enc.fmt]
    word = _FIXED[name][1]
    if not lo <= imm <= hi or imm % align:
        raise ValueError(f"{name}: immediate {imm} is not in [{lo}, {hi}] in steps of {align}")
    for reg, value in (("rd", rd), ("rs1", rs1), ("rs2", rs2)):
        if value:
            if not 0 < value <= 31 or reg not in regs:
                raise ValueError(f"{name}: {reg} {value} does not fit")
            word |= value << _REG_SHIFT[reg]
    for imm_bit, word_bit, width in pieces:
        word |= ((imm >> imm_bit) & ((1 << width) - 1)) << word_bit
    return word
