"""A small two-pass RV32I assembler for the bundled guest corpus.

There is no cross-toolchain in the build environment, so the test suite,
microbenchmarks and probe programs are assembled from shipped .s sources by
this module. It covers full RV32I plus the usual pseudo-instructions and a
handful of data directives; anything it does not know is an error rather than
a silent skip, and every error is an AsmError naming the source line.

An expression is a sum of signed terms, each a number (decimal, 0x or 0b) or
a symbol: `-8`, `BASE + 16`, `end - start`.

This module parses operands, expressions and directives and holds no
encodings: `rv32.insn.encode` packs every instruction from the one RV32I
encoding table, whose format for a mnemonic also says how its operands are
written. A pseudo-instruction is rewritten into one base instruction first.

Pseudo-instructions expand to a fixed size (li/la are always two words) so
pass one can lay out labels without iteration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import AsmError
from .rv32.insn import CSR_CYCLE, CSR_CYCLEH, ENCODINGS, OpClass, encode, sext

REGS = {f"x{i}": i for i in range(32)}
REGS.update(
    zero=0, ra=1, sp=2, gp=3, tp=4, t0=5, t1=6, t2=7, s0=8, fp=8, s1=9,
    a0=10, a1=11, a2=12, a3=13, a4=14, a5=15, a6=16, a7=17,
    s2=18, s3=19, s4=20, s5=21, s6=22, s7=23, s8=24, s9=25, s10=26, s11=27,
    t3=28, t4=29, t5=30, t6=31,
)

CSRS = {"cycle": CSR_CYCLE, "cycleh": CSR_CYCLEH}


@dataclass
class Program:
    base: int
    data: bytes
    symbols: dict[str, int]
    entry: int


# One term of an expression and the sign before it: a number or a symbol.
_TERM = re.compile(
    r"\s*([-+]?)\s*(0[xX][0-9a-fA-F]+|0[bB][01]+|[1-9][0-9]*|0|[A-Za-z_.][\w.$]*)\s*")


def _eval(text: str, symbols: dict[str, int], line: int) -> int:
    """Evaluate a sum of signed terms; only the first term's sign is optional."""
    value = pos = 0
    while True:
        m = _TERM.match(text, pos)
        if m is None or (pos and not m[1]):
            raise AsmError(f"bad expression {text!r}", line)
        tok = m[2]
        term = int(tok, 0) if tok[0].isdigit() else symbols.get(tok)
        if term is None:
            raise AsmError(f"undefined symbol {tok!r}", line)
        value += -term if m[1] == "-" else term
        pos = m.end()
        if pos == len(text):
            return value


# Pseudo-instructions as base instructions over their operands {0}, {1}, ...
_PSEUDO_TEXT = {
    "nop": "addi x0, x0, 0", "mv": "addi {0}, {1}, 0", "not": "xori {0}, {1}, -1",
    "neg": "sub {0}, x0, {1}", "seqz": "sltiu {0}, {1}, 1", "snez": "sltu {0}, x0, {1}",
    "j": "jal x0, {0}", "jr": "jalr x0, {0}, 0", "ret": "jalr x0, ra, 0", "call": "jal ra, {0}",
    "rdcycle": "csrrs {0}, cycle, x0", "rdcycleh": "csrrs {0}, cycleh, x0",
    "beqz": "beq {0}, x0, {1}", "bnez": "bne {0}, x0, {1}", "bltz": "blt {0}, x0, {1}",
    "bgez": "bge {0}, x0, {1}", "blez": "bge x0, {0}, {1}", "bgtz": "blt x0, {0}, {1}",
    "bgt": "blt {1}, {0}, {2}", "ble": "bge {1}, {0}, {2}",
    "bgtu": "bltu {1}, {0}, {2}", "bleu": "bgeu {1}, {0}, {2}",
}
# pseudo -> (operand count, base mnemonic, base operand templates)
_PSEUDO = {op: (text.count("{"), text.split(" ", 1)[0], text.split(" ", 1)[1].split(", "))
           for op, text in _PSEUDO_TEXT.items()}


# Operands each format takes, once loads and stores share the "mem" shape
# `reg, offset(reg)`; None is fence's, whose any operand list is the full barrier.
_OPERANDS = {"R": 3, "I": 3, "shift": 3, "mem": 2, "B": 3, "J": 2, "U": 2, "CSR": 3,
             "fixed": 0, "fence": None}

# A data directive's size in bytes.
_DATA_SIZES = {".word": 4, ".half": 2, ".byte": 1}


def _reg(tok: str, line: int) -> int:
    r = REGS.get(tok.lower())
    if r is None:
        raise AsmError(f"not a register: {tok!r}", line)
    return r


def _expect(op: str, args: list[str], count: int, line: int):
    if len(args) != count:
        raise AsmError(f"{op} expects {count} operands, got {len(args)}", line)


_MEMOP = re.compile(r"^(.*)\(\s*([A-Za-z0-9]+)\s*\)$")


@dataclass
class _Item:
    line: int
    addr: int
    kind: str  # insn | data | bytes
    size: int
    op: str = ""
    args: list = field(default_factory=list)
    blob: bytes = b""


class Assembler:
    def __init__(self, base: int, defines: dict[str, int] | None = None):
        self.base = base
        self.symbols: dict[str, int] = dict(defines or {})
        self.items: list[_Item] = []
        self.addr = base

    # -- pass 1 -----------------------------------------------------------

    def feed(self, source: str):
        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = raw.split("#", 1)[0].split("//", 1)[0].strip()
            while line:
                m = re.match(r"^([A-Za-z_.][\w.$]*)\s*:\s*", line)
                if not m:
                    break
                self._define(m.group(1), self.addr, lineno)
                line = line[m.end():]
            if not line:
                continue
            if line.startswith("."):
                self._directive(line, lineno)
            else:
                self._instruction(line, lineno)

    def _define(self, name: str, value: int, lineno: int):
        if name in self.symbols:
            raise AsmError(f"symbol {name!r} redefined", lineno)
        self.symbols[name] = value

    def _directive(self, line: str, lineno: int):
        parts = line.split(None, 1)
        name, rest = parts[0], parts[1] if len(parts) > 1 else ""
        if name in (".equ", ".set"):
            sym, comma, expr = rest.partition(",")
            if not comma:
                raise AsmError(f"{name} needs a name and a value", lineno)
            self._define(sym.strip(), _eval(expr, self.symbols, lineno), lineno)
        elif name == ".balign":
            boundary = _eval(rest, self.symbols, lineno)
            if boundary < 1 or boundary & (boundary - 1):
                raise AsmError(".balign needs a power of two", lineno)
            pad = -self.addr % boundary
            if pad:
                self._emit_bytes(b"\x00" * pad, lineno)
        elif name in (".space", ".zero"):
            count = _eval(rest, self.symbols, lineno)
            if count < 0:
                raise AsmError(".space needs a non-negative size", lineno)
            self._emit_bytes(b"\x00" * count, lineno)
        elif name in _DATA_SIZES:
            for expr in rest.split(","):
                self._emit(_Item(lineno, self.addr, "data", _DATA_SIZES[name], args=[expr]))
        elif name in (".ascii", ".asciz"):
            text = _parse_string(rest, lineno)
            if name == ".asciz":
                text += b"\x00"
            self._emit_bytes(text, lineno)
        else:
            raise AsmError(f"unknown directive {name}", lineno)

    def _instruction(self, line: str, lineno: int):
        parts = line.split(None, 1)
        op = parts[0].lower()
        args = [arg.strip() for arg in parts[1].split(",")] if len(parts) > 1 else []
        size = 8 if op in ("li", "la") else 4
        self._emit(_Item(lineno, self.addr, "insn", size, op=op, args=args))

    def _emit_bytes(self, blob: bytes, lineno: int):
        self._emit(_Item(lineno, self.addr, "bytes", len(blob), blob=blob))

    def _emit(self, item: _Item):
        self.items.append(item)
        self.addr += item.size

    # -- pass 2 -----------------------------------------------------------

    def finish(self) -> Program:
        out = bytearray()
        for item in self.items:
            assert self.base + len(out) == item.addr, f"layout drift at line {item.line}"
            if item.kind == "bytes":
                out += item.blob
            elif item.kind == "data":
                value = _eval(item.args[0], self.symbols, item.line)
                out += (value & ((1 << item.size * 8) - 1)).to_bytes(item.size, "little")
            else:
                try:
                    words = self._encode(item)
                except ValueError as err:
                    raise AsmError(str(err), item.line) from None
                for word in words:
                    out += word.to_bytes(4, "little")
        entry = self.symbols.get("_start", self.base)
        return Program(self.base, bytes(out), dict(self.symbols), entry)

    def _encode(self, item: _Item) -> list[int]:
        op, args, line, symbols = item.op, item.args, item.line, self.symbols
        if op in ("li", "la"):
            _expect(op, args, 2, line)
            rd, value = _reg(args[0], line), _eval(args[1], symbols, line) & 0xFFFFFFFF
            lo = sext(value, 12)
            return [encode("lui", rd, imm=sext(value - lo, 32)), encode("addi", rd, rd, imm=lo)]
        if op in _PSEUDO:
            count, base, templates = _PSEUDO[op]
            _expect(op, args, count, line)
            op, args = base, [template.format(*args) for template in templates]

        enc = ENCODINGS.get(op)
        if enc is None:
            raise AsmError(f"unknown instruction {op!r}", line)
        fmt = "mem" if enc.opclass in (OpClass.LOAD, OpClass.STORE) else enc.fmt
        if _OPERANDS[fmt] is not None:
            _expect(op, args, _OPERANDS[fmt], line)
        if fmt == "mem":
            m = _MEMOP.match(args[1])
            if not m:
                raise AsmError(f"expected offset(reg), got {args[1]!r}", line)
            off = _eval(m[1], symbols, line) if m[1].strip() else 0
            reg, rs1 = _reg(args[0], line), _reg(m[2], line)
            if enc.fmt == "S":
                return [encode(op, 0, rs1, reg, off)]
            return [encode(op, reg, rs1, imm=off)]
        if fmt == "R":
            return [encode(op, _reg(args[0], line), _reg(args[1], line), _reg(args[2], line))]
        if fmt in ("I", "shift"):  # jalr included
            return [encode(op, _reg(args[0], line), _reg(args[1], line),
                           imm=_eval(args[2], symbols, line))]
        if fmt == "B":
            return [encode(op, 0, _reg(args[0], line), _reg(args[1], line),
                           _eval(args[2], symbols, line) - item.addr)]
        if fmt == "J":
            return [encode(op, _reg(args[0], line), imm=_eval(args[1], symbols, line) - item.addr)]
        if fmt == "U":  # the operand is the upper 20 bits
            return [encode(op, _reg(args[0], line),
                           imm=sext(_eval(args[1], symbols, line) << 12, 32))]
        if fmt == "CSR":
            csr = CSRS.get(args[1].lower())
            if csr is None:
                csr = _eval(args[1], symbols, line)
            rs1 = _eval(args[2], symbols, line) if op.endswith("i") else _reg(args[2], line)
            return [encode(op, _reg(args[0], line), rs1, imm=csr)]
        return [encode(op, imm=0x0FF if fmt == "fence" else 0)]


def _parse_string(text: str, line: int) -> bytes:
    text = text.strip()
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise AsmError("expected a quoted string", line)
    body = text[1:-1]
    out = bytearray()
    i = 0
    escapes = {"n": 10, "t": 9, "0": 0, "\\": 92, '"': 34, "r": 13}
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            i += 1
            if i >= len(body) or body[i] not in escapes:
                raise AsmError(f"bad escape in string: {body!r}", line)
            out.append(escapes[body[i]])
        else:
            out.append(ord(ch))
        i += 1
    return bytes(out)


def assemble(
    source: str | list[str], base: int, defines: dict[str, int] | None = None
) -> Program:
    """Assemble one or more source texts (concatenated in order) at `base`."""
    asm = Assembler(base, defines)
    sources = [source] if isinstance(source, str) else list(source)
    for text in sources:
        asm.feed(text)
    return asm.finish()
