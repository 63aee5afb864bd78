"""A small two-pass RV32I assembler for the bundled guest corpus.

There is no cross-toolchain in the build environment, so the test suite,
microbenchmarks and probe programs are assembled from shipped .s sources by
this module. It covers full RV32I plus the usual pseudo-instructions and a
handful of data directives; anything it does not know is an error rather than
a silent skip, and every error is an AsmError naming the source line.

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
        try:
            return _Expr(text, self.symbols, lineno).parse()
        except (ArithmeticError, ValueError) as err:  # x/0, x%0, x << -1
            raise AsmError(f"cannot evaluate {text!r}: {err}", lineno) from None

    def _directive(self, line: str, lineno: int):
        parts = line.split(None, 1)
        name, rest = parts[0], parts[1] if len(parts) > 1 else ""
        if name in (".equ", ".set"):
            sym, comma, expr = rest.partition(",")
            if not comma:
                raise AsmError(f"{name} needs a name and a value", lineno)
            self._define(sym.strip(), self._eval(expr, lineno), lineno)
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
                try:
                    words = self._encode(item)
                except ValueError as err:
                    raise AsmError(str(err), item.line) from None
                for word in words:
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

        if op in ("li", "la"):
            nargs(2)
            value = ev(args[1]) & 0xFFFFFFFF
            lo = sext(value, 12)
            rd = reg(0)
            return [encode("lui", rd, imm=sext(value - lo, 32)), encode("addi", rd, rd, imm=lo)]
        if op in _PSEUDO:
            count, base, templates = _PSEUDO[op]
            nargs(count)
            op, args = base, [template.format(*args) for template in templates]

        # base instructions, by format; jal and jalr also take short forms
        if op == "jal":
            if len(args) == 1:
                return [encode("jal", REGS["ra"], imm=btarget(0))]
            nargs(2)
            return [encode("jal", reg(0), imm=btarget(1))]
        if op == "jalr":
            if len(args) == 1:
                return [encode("jalr", REGS["ra"], reg(0))]
            if len(args) == 2:
                off, rs1 = memop(1)
                return [encode("jalr", reg(0), rs1, imm=off)]
            nargs(3)
            return [encode("jalr", reg(0), reg(1), imm=ev(args[2]))]
        enc = ENCODINGS.get(op)
        if enc is None:
            raise AsmError(f"unknown instruction {op!r}", line)
        if enc.fmt == "R":
            nargs(3)
            return [encode(op, reg(0), reg(1), reg(2))]
        if enc.opclass is OpClass.LOAD:
            nargs(2)
            off, rs1 = memop(1)
            return [encode(op, reg(0), rs1, imm=off)]
        if enc.fmt in ("I", "shift"):
            nargs(3)
            return [encode(op, reg(0), reg(1), imm=ev(args[2]))]
        if enc.fmt == "S":
            nargs(2)
            off, rs1 = memop(1)
            return [encode(op, 0, rs1, reg(0), off)]
        if enc.fmt == "B":
            nargs(3)
            return [encode(op, 0, reg(0), reg(1), btarget(2))]
        if enc.fmt == "U":  # the operand is the upper 20 bits
            nargs(2)
            return [encode(op, reg(0), imm=sext(ev(args[1]) << 12, 32))]
        if enc.fmt == "CSR":
            nargs(3)
            csr = CSRS.get(args[1].lower())
            if csr is None:
                csr = ev(args[1])
            rs1 = ev(args[2]) if op.endswith("i") else reg(2)
            return [encode(op, reg(0), rs1, imm=csr)]
        # any operand list of fence is the full barrier; ecall and ebreak take none
        return [encode(op, imm=0x0FF if enc.fmt == "fence" else 0)]


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
