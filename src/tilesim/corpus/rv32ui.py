"""Generator for the bundled ISA test suite (tohost convention).

One test program per base instruction plus edge-case programs (sign
extension, x0 discards, wraparound, misalignment traps). Each program runs a
sequence of checks; on the first mismatch it writes (testnum << 1) | 1 to the
tohost word, on full success it writes 1, then parks in a self-loop. Trap
tests (names ending in "-trap") are expected to halt the core instead of
reaching tohost; the suite runner knows the convention.

Expected values are computed here, in plain Python arithmetic, independently
of the simulator's execution engine.
"""

from __future__ import annotations

M32 = 0xFFFFFFFF

_FOOTER = """
pass_all:
    li   x1, 1
    j    write_tohost
fail:
    slli x1, x28, 1
    ori  x1, x1, 1
write_tohost:
    la   x2, tohost
    sw   x1, 0(x2)
self_loop:
    j    self_loop
    .balign 8
tohost:
    .word 0
scratch:
    .space 64
"""


def _s32(x: int) -> int:
    x &= M32
    return x - (1 << 32) if x & 0x80000000 else x


# reference two-operand semantics on unsigned 32-bit operands; shifts use the low 5 bits
_REF = {
    "add": lambda a, b: (a + b) & M32, "sub": lambda a, b: (a - b) & M32,
    "and": lambda a, b: a & b, "or": lambda a, b: a | b, "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: (a << (b & 31)) & M32, "srl": lambda a, b: a >> (b & 31),
    "sra": lambda a, b: (_s32(a) >> (b & 31)) & M32,
    "slt": lambda a, b: int(_s32(a) < _s32(b)), "sltu": lambda a, b: int(a < b),
}


def _ref(op: str, a: int, b: int) -> int:
    """An op, or an immediate form as its base op (addi -> add, sltiu -> sltu)."""
    return _REF[op.replace("i", "", 1)](a & M32, b & M32)


_PAIRS = [
    (0, 0), (1, 1), (3, 7), (0xFFFFFFFF, 1), (1, 0xFFFFFFFF),
    (0x7FFFFFFF, 1), (0x80000000, 1), (0x80000000, 0x80000000),
    (0x80000000, 0x7FFFFFFF), (0x12345678, 0x9ABCDEF0), (0xAAAA5555, 0x0F0F0F0F),
    (0xFFFFFFFF, 0xFFFFFFFF), (0, 0xFFFFFFFF),
]
_SHIFT_PAIRS = [(0x80000000, 31), (0x80000000, 1), (1, 31), (0xDEADBEEF, 0),
                (0xDEADBEEF, 4), (0xFFFFFFFF, 16), (7, 33)]  # 33 exercises the 5-bit mask
_IMMEDIATES = [-2048, -1, 0, 1, 7, 2047]
_SHAMTS = [0, 1, 15, 31]

_BRANCH_CASES = [
    (0, 0), (1, 0), (0, 1), (0xFFFFFFFF, 1), (0x80000000, 0x7FFFFFFF),
    (0x7FFFFFFF, 0x80000000), (5, 5), (0xFFFFFFFF, 0xFFFFFFFF),
]


def _branch_taken(op: str, a: int, b: int) -> bool:
    return {
        "beq": a == b, "bne": a != b,
        "blt": _s32(a) < _s32(b), "bge": _s32(a) >= _s32(b),
        "bltu": (a & M32) < (b & M32), "bgeu": (a & M32) >= (b & M32),
    }[op]


class _Builder:
    def __init__(self):
        self.lines = ["_start:"]
        self.testnum = 0
        self._label = 0

    def label(self, stem: str) -> str:
        self._label += 1
        return f"{stem}_{self._label}"

    def case(self, body: list[str]):
        self.testnum += 1
        self.lines.append(f"    li   x28, {self.testnum}")
        self.lines.extend(body)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n    j    pass_all\n" + _FOOTER


def _rr_test(op: str) -> str:
    b = _Builder()
    pairs = _SHIFT_PAIRS + _PAIRS[:6] if op in ("sll", "srl", "sra") else _PAIRS
    for a, x in pairs:
        expect = _ref(op, a, x)
        b.case([
            f"    li   x11, {a}",
            f"    li   x12, {x}",
            f"    {op}  x13, x11, x12",
            f"    li   x14, {expect}",
            "    bne  x13, x14, fail",
        ])
    # same source and destination registers
    a, x = _PAIRS[5]
    b.case([
        f"    li   x11, {a}",
        f"    li   x12, {x}",
        f"    {op}  x11, x11, x12",
        f"    li   x14, {_ref(op, a, x)}",
        "    bne  x11, x14, fail",
    ])
    return b.source()


def _imm_test(op: str) -> str:
    b = _Builder()
    for a in [0, 1, 0xFFFFFFFF, 0x7FFFFFFF, 0x80000000, 0x12345678]:
        for imm in _SHAMTS if op in ("slli", "srli", "srai") else _IMMEDIATES:
            b.case([
                f"    li   x11, {a}",
                f"    {op} x13, x11, {imm}",
                f"    li   x14, {_ref(op, a, imm)}",
                "    bne  x13, x14, fail",
            ])
    return b.source()


def _lui_test() -> str:
    b = _Builder()
    for imm20 in (0, 1, 0x80000, 0xFFFFF, 0x12345):
        b.case([
            f"    lui  x11, {imm20}",
            f"    li   x14, {(imm20 << 12) & M32}",
            "    bne  x11, x14, fail",
        ])
    return b.source()


def _auipc_test() -> str:
    b = _Builder()
    for imm20 in (0, 1, 0xFFFFF, 0x80000):
        mark = b.label("auipc_at")
        b.case([
            f"{mark}:",
            f"    auipc x11, {imm20}",
            f"    la   x12, {mark}",
            f"    li   x13, {(imm20 << 12) & M32}",
            "    add  x12, x12, x13",
            "    bne  x11, x12, fail",
        ])
    return b.source()


def _jal_test() -> str:
    b = _Builder()
    for _ in range(3):
        target = b.label("jal_t")
        ret = b.label("jal_ret")
        b.case([
            f"    la   x6, {ret}",
            f"    jal  x5, {target}",
            f"{ret}:",
            "    j    fail",
            f"{target}:",
            "    bne  x5, x6, fail",
        ])
    # jal x0: plain jump, no link
    target = b.label("jal_t")
    b.case([
        "    li   x5, 99",
        f"    jal  x0, {target}",
        "    j    fail",
        f"{target}:",
        "    li   x6, 99",
        "    bne  x5, x6, fail",
    ])
    return b.source()


def _jalr_test() -> str:
    b = _Builder()
    target = b.label("jalr_t")
    ret = b.label("jalr_ret")
    b.case([
        f"    la   x7, {target}",
        f"    la   x6, {ret}",
        "    jalr x5, x7, 0",
        f"{ret}:",
        "    j    fail",
        f"{target}:",
        "    bne  x5, x6, fail",
    ])
    # nonzero immediate and the dropped low bit
    target = b.label("jalr_t")
    ret = b.label("jalr_ret")
    b.case([
        f"    la   x7, {target}",
        "    addi x7, x7, -7",
        f"    la   x6, {ret}",
        "    jalr x5, x7, 8",  # -7 + 8 = +1: bit 0 must be cleared
        f"{ret}:",
        "    j    fail",
        f"{target}:",
        "    bne  x5, x6, fail",
    ])
    return b.source()


def _branch_test(op: str) -> str:
    b = _Builder()
    for a, x in _BRANCH_CASES:
        taken = _branch_taken(op, a, x)
        target = b.label("br_t")
        if taken:
            body = [
                f"    li   x11, {a}",
                f"    li   x12, {x}",
                f"    {op}  x11, x12, {target}",
                "    j    fail",
                f"{target}:",
            ]
        else:
            body = [
                f"    li   x11, {a}",
                f"    li   x12, {x}",
                f"    {op}  x11, x12, fail",
            ]
        b.case(body)
    # backward taken branch
    fwd = b.label("br_fwd")
    back = b.label("br_back")
    done = b.label("br_done")
    a, x = next(p for p in _BRANCH_CASES if _branch_taken(op, *p))
    b.case([
        f"    li   x11, {a}",
        f"    li   x12, {x}",
        "    li   x13, 0",
        f"    j    {fwd}",
        f"{back}:",
        "    addi x13, x13, 1",
        f"    j    {done}",
        f"{fwd}:",
        f"    {op}  x11, x12, {back}",
        "    j    fail",
        f"{done}:",
        "    li   x14, 1",
        "    bne  x13, x14, fail",
    ])
    return b.source()


def _load_store_test() -> str:
    b = _Builder()
    word = 0xDEADBEEF
    b.case([
        "    la   x11, scratch",
        f"    li   x12, {word}",
        "    sw   x12, 0(x11)",
        "    lw   x13, 0(x11)",
        "    bne  x13, x12, fail",
    ])
    # byte lane order: four sb's then one lw (little-endian merge)
    b.case([
        "    la   x11, scratch",
        "    li   x12, 0x11",
        "    sb   x12, 8(x11)",
        "    li   x12, 0x22",
        "    sb   x12, 9(x11)",
        "    li   x12, 0x33",
        "    sb   x12, 10(x11)",
        "    li   x12, 0x44",
        "    sb   x12, 11(x11)",
        "    lw   x13, 8(x11)",
        "    li   x14, 0x44332211",
        "    bne  x13, x14, fail",
    ])
    # sh merge
    b.case([
        "    la   x11, scratch",
        "    li   x12, 0xBEEF",
        "    sh   x12, 16(x11)",
        "    li   x12, 0xDEAD",
        "    sh   x12, 18(x11)",
        "    lw   x13, 16(x11)",
        "    li   x14, 0xDEADBEEF",
        "    bne  x13, x14, fail",
    ])
    # negative offsets
    b.case([
        "    la   x11, scratch",
        "    addi x11, x11, 32",
        "    li   x12, 0x5A5A5A5A",
        "    sw   x12, -8(x11)",
        "    lw   x13, -8(x11)",
        "    bne  x13, x12, fail",
    ])
    return b.source()


def _load_ext_test(op: str) -> str:
    """lb/lbu/lh/lhu sign/zero extension over a known pattern."""
    b = _Builder()
    pattern = 0x80FF7F01  # bytes 01 7F FF 80 at offsets 0..3 (little-endian)
    expect = {  # (offset, value loaded)
        "lb": [(0, 0x01), (1, 0x7F), (2, 0xFFFFFFFF), (3, 0xFFFFFF80)],
        "lbu": [(0, 0x01), (1, 0x7F), (2, 0xFF), (3, 0x80)],
        "lh": [(0, 0x7F01), (2, 0xFFFF80FF)],
        "lhu": [(0, 0x7F01), (2, 0x80FF)],
    }
    for off, value in expect[op]:
        b.case([
            "    la   x11, scratch",
            f"    li   x12, {pattern}",
            "    sw   x12, 0(x11)",
            f"    {op}  x13, {off}(x11)",
            f"    li   x14, {value}",
            "    bne  x13, x14, fail",
        ])
    return b.source()


def _store_narrow_test(op: str) -> str:
    b = _Builder()
    offset, expect = (1, 0xFFFF78FF) if op == "sb" else (2, 0x5678FFFF)
    b.case([
        "    la   x11, scratch",
        "    li   x12, 0xFFFFFFFF",
        "    sw   x12, 0(x11)",
        "    li   x13, 0x12345678",  # only its low byte or half must land
        f"    {op}   x13, {offset}(x11)",
        "    lw   x14, 0(x11)",
        f"    li   x15, {expect:#x}",
        "    bne  x14, x15, fail",
    ])
    return b.source()


def _x0_test() -> str:
    b = _Builder()
    b.case([
        "    addi x0, x0, 5",
        "    li   x14, 0",
        "    bne  x0, x14, fail",
    ])
    b.case([
        "    li   x11, 123",
        "    add  x0, x11, x11",
        "    li   x14, 0",
        "    bne  x0, x14, fail",
    ])
    b.case([
        "    la   x11, scratch",
        "    li   x12, 77",
        "    sw   x12, 0(x11)",
        "    lw   x0, 0(x11)",  # load performs, write-back is discarded
        "    li   x14, 0",
        "    bne  x0, x14, fail",
    ])
    return b.source()


def _wraparound_test() -> str:
    b = _Builder()
    cases = [
        ("add", 0xFFFFFFFF, 1, 0),
        ("add", 0xFFFFFFFF, 2, 1),
        ("add", 0x80000000, 0x80000000, 0),
        ("sub", 0, 1, 0xFFFFFFFF),
        ("sub", 0x80000000, 1, 0x7FFFFFFF),
    ]
    for op, a, x, expect in cases:
        b.case([
            f"    li   x11, {a}",
            f"    li   x12, {x}",
            f"    {op}  x13, x11, x12",
            f"    li   x14, {expect}",
            "    bne  x13, x14, fail",
        ])
    return b.source()


def _fence_test() -> str:
    b = _Builder()
    b.case([
        "    la   x11, scratch",
        "    li   x12, 42",
        "    sw   x12, 0(x11)",
        "    fence",
        "    lw   x13, 0(x11)",
        "    bne  x13, x12, fail",
    ])
    return b.source()


def _rdcycle_test() -> str:
    b = _Builder()
    b.case([
        "    rdcycle x11",
        "    rdcycle x12",
        "    bgeu x11, x12, fail",  # the counter strictly increases
    ])
    b.case([
        "    rdcycleh x11",
        "    li   x14, 0",
        "    bne  x11, x14, fail",  # well below 2^32 cycles here
    ])
    return b.source()


_TRAP_BODIES = {
    "misalign_lw": ["    la   x11, scratch", "    lw   x12, 2(x11)"],
    "misalign_lh": ["    la   x11, scratch", "    lh   x12, 1(x11)"],
    "misalign_sw": ["    la   x11, scratch", "    li   x12, 1", "    sw   x12, 2(x11)"],
    "misalign_sh": ["    la   x11, scratch", "    li   x12, 1", "    sh   x12, 1(x11)"],
    "misalign_fetch": ["    la   x11, scratch", "    addi x11, x11, 2", "    jr   x11"],
}


def _trap_test(kind: str) -> str:
    b = _Builder()
    b.case(_TRAP_BODIES[kind])  # must halt the core before tohost is reachable
    return b.source()


def suite() -> dict[str, str]:
    """name -> assembly source; names ending in -trap must trap instead of pass."""
    tests: dict[str, str] = {}
    for op in ("add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu"):
        tests[op] = _rr_test(op)
    for op in ("addi", "andi", "ori", "xori", "slti", "sltiu", "slli", "srli", "srai"):
        tests[op] = _imm_test(op)
    tests["lui"] = _lui_test()
    tests["auipc"] = _auipc_test()
    tests["jal"] = _jal_test()
    tests["jalr"] = _jalr_test()
    for op in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
        tests[op] = _branch_test(op)
    tests["sw_lw"] = _load_store_test()
    for op in ("lb", "lbu", "lh", "lhu"):
        tests[op] = _load_ext_test(op)
    tests["sb"] = _store_narrow_test("sb")
    tests["sh"] = _store_narrow_test("sh")
    tests["x0_discard"] = _x0_test()
    tests["wraparound"] = _wraparound_test()
    tests["fence"] = _fence_test()
    tests["rdcycle"] = _rdcycle_test()
    for kind in _TRAP_BODIES:
        tests[f"{kind}-trap"] = _trap_test(kind)
    return tests
