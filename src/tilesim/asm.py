"""A small two-pass RV32I assembler for the bundled guest corpus.

There is no cross-toolchain in the build environment, so the test suite,
microbenchmarks and probe programs are assembled from shipped .s sources by
this module. It covers full RV32I plus the usual pseudo-instructions and a
handful of data directives; anything it does not know is an error rather than
a silent skip.

Pseudo-instructions expand to a fixed size (li/la are always two words) so
pass one can lay out labels without iteration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import AsmError

REGS = {f"x{i}": i for i in range(32)}
REGS.update(
    zero=0, ra=1, sp=2, gp=3, tp=4, t0=5, t1=6, t2=7, s0=8, fp=8, s1=9,
    a0=10, a1=11, a2=12, a3=13, a4=14, a5=15, a6=16, a7=17,
    s2=18, s3=19, s4=20, s5=21, s6=22, s7=23, s8=24, s9=25, s10=26, s11=27,
    t3=28, t4=29, t5=30, t6=31,
)

CSRS = {"cycle": 0xC00, "cycleh": 0xC80}


@dataclass
class Program:
    base: int
    data: bytes
    symbols: dict[str, int]
    entry: int


# ---------------------------------------------------------------------------
# expression evaluation


class _Expr:
    """Tiny recursive-descent evaluator over ints, symbols, %hi/%lo and + - * / etc."""

    _TOKEN = re.compile(
        r"\s*(?:(0[xX][0-9a-fA-F]+|0[bB][01]+|\d+)|(%hi|%lo|[A-Za-z_.][\w.$]*)"
        r"|(<<|>>|[()+\-*/%&|^~]))"
    )

    def __init__(self, text: str, symbols: dict[str, int], line: int):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = self._TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise AsmError(f"bad expression {text!r}", line)
                break
            self.tokens.append(m.group(0).strip())
            pos = m.end()
        self.symbols = symbols
        self.line = line
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def parse(self) -> int:
        value = self._or()
        if self._peek() is not None:
            raise AsmError(f"trailing junk in expression: {self._peek()!r}", self.line)
        return value

    def _or(self):
        v = self._xor()
        while self._peek() == "|":
            self._next()
            v |= self._xor()
        return v

    def _xor(self):
        v = self._and()
        while self._peek() == "^":
            self._next()
            v ^= self._and()
        return v

    def _and(self):
        v = self._shift()
        while self._peek() == "&":
            self._next()
            v &= self._shift()
        return v

    def _shift(self):
        v = self._sum()
        while self._peek() in ("<<", ">>"):
            if self._next() == "<<":
                v <<= self._sum()
            else:
                v >>= self._sum()
        return v

    def _sum(self):
        v = self._term()
        while self._peek() in ("+", "-"):
            if self._next() == "+":
                v += self._term()
            else:
                v -= self._term()
        return v

    def _term(self):
        v = self._unary()
        while self._peek() in ("*", "/", "%"):
            op = self._next()
            rhs = self._unary()
            if op == "*":
                v *= rhs
            elif op == "/":
                v //= rhs
            else:
                v %= rhs
        return v

    def _unary(self):
        tok = self._next()
        if tok is None:
            raise AsmError("expression ends early", self.line)
        if tok == "-":
            return -self._unary()
        if tok == "~":
            return ~self._unary()
        if tok == "+":
            return self._unary()
        if tok == "(":
            v = self._or()
            if self._next() != ")":
                raise AsmError("missing ')'", self.line)
            return v
        if tok in ("%hi", "%lo"):
            if self._next() != "(":
                raise AsmError(f"{tok} needs parentheses", self.line)
            v = self._or()
            if self._next() != ")":
                raise AsmError("missing ')'", self.line)
            lo = ((v & 0xFFF) ^ 0x800) - 0x800  # sign-extended low 12
            return ((v - lo) >> 12) & 0xFFFFF if tok == "%hi" else lo
        if tok[0].isdigit():
            return int(tok, 0)
        if tok in self.symbols:
            return self.symbols[tok]
        raise AsmError(f"undefined symbol {tok!r}", self.line)


# ---------------------------------------------------------------------------
# encoders


def _enc_r(funct7, funct3, opcode, rd, rs1, rs2):
    return (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode


def _enc_i(funct3, opcode, rd, rs1, imm, line):
    if not -2048 <= imm <= 2047:
        raise AsmError(f"immediate {imm} out of I-range", line)
    return ((imm & 0xFFF) << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode


def _enc_s(funct3, rs1, rs2, imm, line):
    if not -2048 <= imm <= 2047:
        raise AsmError(f"immediate {imm} out of S-range", line)
    imm &= 0xFFF
    return (
        ((imm >> 5) << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12)
        | ((imm & 0x1F) << 7) | 0x23
    )


def _enc_b(funct3, rs1, rs2, offset, line):
    if offset % 2 or not -4096 <= offset <= 4094:
        raise AsmError(f"branch offset {offset} unencodable", line)
    imm = offset & 0x1FFF
    return (
        (((imm >> 12) & 1) << 31) | (((imm >> 5) & 0x3F) << 25) | (rs2 << 20)
        | (rs1 << 15) | (funct3 << 12) | (((imm >> 1) & 0xF) << 8)
        | (((imm >> 11) & 1) << 7) | 0x63
    )


def _enc_u(opcode, rd, imm20, line):
    if not 0 <= imm20 <= 0xFFFFF:
        raise AsmError(f"upper immediate {imm20:#x} out of range", line)
    return (imm20 << 12) | (rd << 7) | opcode


def _enc_j(rd, offset, line):
    if offset % 2 or not -(1 << 20) <= offset <= (1 << 20) - 2:
        raise AsmError(f"jump offset {offset} unencodable", line)
    imm = offset & 0x1FFFFF
    return (
        (((imm >> 20) & 1) << 31) | (((imm >> 1) & 0x3FF) << 21)
        | (((imm >> 11) & 1) << 20) | (((imm >> 12) & 0xFF) << 12) | (rd << 7) | 0x6F
    )


_R_OPS = {
    "add": (0x00, 0), "sub": (0x20, 0), "sll": (0x00, 1), "slt": (0x00, 2),
    "sltu": (0x00, 3), "xor": (0x00, 4), "srl": (0x00, 5), "sra": (0x20, 5),
    "or": (0x00, 6), "and": (0x00, 7),
}
_I_ALU = {"addi": 0, "slti": 2, "sltiu": 3, "xori": 4, "ori": 6, "andi": 7}
_SHIFTS = {"slli": (0x00, 1), "srli": (0x00, 5), "srai": (0x20, 5)}
_LOADS = {"lb": 0, "lh": 1, "lw": 2, "lbu": 4, "lhu": 5}
_STORES = {"sb": 0, "sh": 1, "sw": 2}
_BRANCHES = {"beq": 0, "bne": 1, "blt": 4, "bge": 5, "bltu": 6, "bgeu": 7}
_BRANCH_SWAP = {"bgt": "blt", "ble": "bge", "bgtu": "bltu", "bleu": "bgeu"}
_BRANCH_ZERO = {
    "beqz": ("beq", False), "bnez": ("bne", False), "bltz": ("blt", False),
    "bgez": ("bge", False), "blez": ("bge", True), "bgtz": ("blt", True),
}
_CSR_OPS = {"csrrw": 1, "csrrs": 2, "csrrc": 3, "csrrwi": 5, "csrrsi": 6, "csrrci": 7}


def _reg(tok: str, line: int) -> int:
    r = REGS.get(tok.strip().lower())
    if r is None:
        raise AsmError(f"not a register: {tok!r}", line)
    return r


_MEMOP = re.compile(r"^(.*)\(\s*([A-Za-z0-9]+)\s*\)$")


@dataclass
class _Item:
    line: int
    addr: int
    kind: str  # insn | word | half | byte | bytes
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

    def _eval(self, text: str, lineno: int) -> int:
        return _Expr(text, self.symbols, lineno).parse()

    def _directive(self, line: str, lineno: int):
        parts = line.split(None, 1)
        name, rest = parts[0], parts[1] if len(parts) > 1 else ""
        if name in (".equ", ".set"):
            sym, expr = [p.strip() for p in rest.split(",", 1)]
            self._define(sym, self._eval(expr, lineno), lineno)
        elif name == ".globl" or name == ".global":
            pass  # every label is exported
        elif name == ".balign":
            boundary = self._eval(rest, lineno)
            if boundary < 1 or boundary & (boundary - 1):
                raise AsmError(".balign needs a power of two", lineno)
            pad = -self.addr % boundary
            if pad:
                self._emit(_Item(lineno, self.addr, "bytes", blob=b"\x00" * pad))
        elif name in (".space", ".zero"):
            count = self._eval(rest, lineno)
            if count < 0:
                raise AsmError(".space needs a non-negative size", lineno)
            self._emit(_Item(lineno, self.addr, "bytes", blob=b"\x00" * count))
        elif name in (".word", ".half", ".byte"):
            size = {".word": 4, ".half": 2, ".byte": 1}[name]
            exprs = [e.strip() for e in rest.split(",")]
            kind = {4: "word", 2: "half", 1: "byte"}[size]
            for expr in exprs:
                self._emit(_Item(lineno, self.addr, kind, args=[expr]), size)
        elif name in (".ascii", ".asciz"):
            text = _parse_string(rest, lineno)
            if name == ".asciz":
                text += b"\x00"
            self._emit(_Item(lineno, self.addr, "bytes", blob=text))
        else:
            raise AsmError(f"unknown directive {name}", lineno)

    def _instruction(self, line: str, lineno: int):
        parts = line.split(None, 1)
        op = parts[0].lower()
        argtext = parts[1] if len(parts) > 1 else ""
        args = _split_args(argtext)
        size = 8 if op in ("li", "la") else 4
        self._emit(_Item(lineno, self.addr, "insn", op=op, args=args), size)

    def _emit(self, item: _Item, size: int | None = None):
        self.items.append(item)
        self.addr += size if size is not None else len(item.blob)

    # -- pass 2 -----------------------------------------------------------

    def finish(self) -> Program:
        out = bytearray()
        for item in self.items:
            assert self.base + len(out) == item.addr, f"layout drift at line {item.line}"
            if item.kind == "bytes":
                out += item.blob
            elif item.kind in ("word", "half", "byte"):
                size = {"word": 4, "half": 2, "byte": 1}[item.kind]
                value = self._eval(item.args[0], item.line) & ((1 << size * 8) - 1)
                out += value.to_bytes(size, "little")
            else:
                for word in self._encode(item):
                    out += word.to_bytes(4, "little")
        entry = self.symbols.get("_start", self.base)
        return Program(self.base, bytes(out), dict(self.symbols), entry)

    def _encode(self, item: _Item) -> list[int]:
        op, args, line, addr = item.op, item.args, item.line, item.addr
        ev = lambda text: self._eval(text, line)  # noqa: E731

        def reg(i):
            return _reg(args[i], line)

        def nargs(n):
            if len(args) != n:
                raise AsmError(f"{op} expects {n} operands, got {len(args)}", line)

        def memop(i):
            m = _MEMOP.match(args[i])
            if not m:
                raise AsmError(f"expected offset(reg), got {args[i]!r}", line)
            off = ev(m.group(1)) if m.group(1).strip() else 0
            return off, _reg(m.group(2), line)

        def btarget(i):
            return ev(args[i]) - addr

        # pseudo-instructions first
        if op == "nop":
            return [_enc_i(0, 0x13, 0, 0, 0, line)]
        if op in ("li", "la"):
            nargs(2)
            value = ev(args[1]) & 0xFFFFFFFF
            lo = ((value & 0xFFF) ^ 0x800) - 0x800
            hi = ((value - lo) >> 12) & 0xFFFFF
            rd = reg(0)
            return [_enc_u(0x37, rd, hi, line), _enc_i(0, 0x13, rd, rd, lo, line)]
        if op == "mv":
            nargs(2)
            return [_enc_i(0, 0x13, reg(0), reg(1), 0, line)]
        if op == "not":
            nargs(2)
            return [_enc_i(4, 0x13, reg(0), reg(1), -1, line)]
        if op == "neg":
            nargs(2)
            return [_enc_r(0x20, 0, 0x33, reg(0), 0, reg(1))]
        if op == "seqz":
            nargs(2)
            return [_enc_i(3, 0x13, reg(0), reg(1), 1, line)]
        if op == "snez":
            nargs(2)
            return [_enc_r(0, 3, 0x33, reg(0), 0, reg(1))]
        if op == "j":
            nargs(1)
            return [_enc_j(0, btarget(0), line)]
        if op == "jr":
            nargs(1)
            return [_enc_i(0, 0x67, 0, reg(0), 0, line)]
        if op == "ret":
            nargs(0)
            return [_enc_i(0, 0x67, 0, REGS["ra"], 0, line)]
        if op == "call":
            nargs(1)
            return [_enc_j(REGS["ra"], btarget(0), line)]
        if op in ("rdcycle", "rdcycleh"):
            nargs(1)
            csr = CSRS["cycle" if op == "rdcycle" else "cycleh"]
            return [_enc_i(2, 0x73, reg(0), 0, 0, line) | (csr << 20)]
        if op in _BRANCH_ZERO:
            nargs(2)
            real, swap = _BRANCH_ZERO[op]
            rs1, rs2 = (0, reg(0)) if swap else (reg(0), 0)
            return [_enc_b(_BRANCHES[real], rs1, rs2, btarget(1), line)]
        if op in _BRANCH_SWAP:
            nargs(3)
            return [_enc_b(_BRANCHES[_BRANCH_SWAP[op]], reg(1), reg(0), btarget(2), line)]

        # base instructions
        if op in _R_OPS:
            nargs(3)
            f7, f3 = _R_OPS[op]
            return [_enc_r(f7, f3, 0x33, reg(0), reg(1), reg(2))]
        if op in _I_ALU:
            nargs(3)
            return [_enc_i(_I_ALU[op], 0x13, reg(0), reg(1), ev(args[2]), line)]
        if op in _SHIFTS:
            nargs(3)
            f7, f3 = _SHIFTS[op]
            shamt = ev(args[2])
            if not 0 <= shamt <= 31:
                raise AsmError(f"shift amount {shamt} out of range", line)
            return [_enc_r(f7, f3, 0x13, reg(0), reg(1), shamt)]
        if op in _LOADS:
            nargs(2)
            off, rs1 = memop(1)
            return [_enc_i(_LOADS[op], 0x03, reg(0), rs1, off, line)]
        if op in _STORES:
            nargs(2)
            off, rs1 = memop(1)
            return [_enc_s(_STORES[op], rs1, reg(0), off, line)]
        if op in _BRANCHES:
            nargs(3)
            return [_enc_b(_BRANCHES[op], reg(0), reg(1), btarget(2), line)]
        if op == "jal":
            if len(args) == 1:
                return [_enc_j(REGS["ra"], btarget(0), line)]
            nargs(2)
            return [_enc_j(reg(0), btarget(1), line)]
        if op == "jalr":
            if len(args) == 1:
                return [_enc_i(0, 0x67, REGS["ra"], reg(0), 0, line)]
            if len(args) == 2:
                off, rs1 = memop(1)
                return [_enc_i(0, 0x67, reg(0), rs1, off, line)]
            nargs(3)
            return [_enc_i(0, 0x67, reg(0), reg(1), ev(args[2]), line)]
        if op in ("lui", "auipc"):
            nargs(2)
            opcode = 0x37 if op == "lui" else 0x17
            return [_enc_u(opcode, reg(0), ev(args[1]) & 0xFFFFF, line)]
        if op == "fence":
            # treat any operand list as the full-barrier fence
            return [0x0FF0000F]
        if op == "ecall":
            return [0x00000073]
        if op == "ebreak":
            return [0x00100073]
        if op in _CSR_OPS:
            nargs(3)
            csr = CSRS.get(args[1].lower())
            if csr is None:
                csr = ev(args[1])
            f3 = _CSR_OPS[op]
            rs1 = ev(args[2]) if op.endswith("i") else reg(2)
            if not 0 <= rs1 <= 31:
                raise AsmError("csr zimm out of range", line)
            return [_enc_i(f3, 0x73, reg(0), rs1, 0, line) | (csr << 20)]
        raise AsmError(f"unknown instruction {op!r}", line)


def _split_args(text: str) -> list[str]:
    """Split on commas not inside parentheses."""
    args, depth, cur = [], 0, ""
    for ch in text:
        if ch == "," and depth == 0:
            args.append(cur.strip())
            cur = ""
            continue
        depth += ch == "("
        depth -= ch == ")"
        cur += ch
    if cur.strip():
        args.append(cur.strip())
    return args


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
