"""Assembler and ELF round-trip tests, cross-checked against independent oracles
(the tests' own table decoder for encodings, GNU readelf for the file format)."""

import shutil
import struct
import subprocess

import pytest

import rvoracle
from tilesim.asm import assemble
from tilesim.elf import Segment, build_elf, parse_elf, program_to_elf
from tilesim.errors import AsmError, LoadError


def words(program):
    return list(struct.unpack(f"<{len(program.data) // 4}I", program.data))


def test_basic_encodings_match_oracle():
    src = """
    _start:
        addi x1, x0, 10
        add  a0, a1, a2
        sub  t0, t1, t2
        lw   s0, 8(sp)
        sb   a0, -1(gp)
        beq  a0, a1, _start
        jal  ra, _start
        lui  t0, 0xFEDCB
        auipc t1, 1
        srai a2, a3, 31
        sltiu a4, a5, 2047
        fence
        ecall
        ebreak
        csrrs a0, cycle, x0
    """
    prog = assemble(src, base=0x1000)
    expect = [
        ("addi", {"rd": 1, "rs1": 0, "imm": 10}),
        ("add", {"rd": 10, "rs1": 11, "rs2": 12}),
        ("sub", {"rd": 5, "rs1": 6, "rs2": 7}),
        ("lw", {"rd": 8, "rs1": 2, "imm": 8}),
        ("sb", {"rs1": 3, "rs2": 10, "imm": -1}),
        ("beq", {"rs1": 10, "rs2": 11, "imm": -20}),
        ("jal", {"rd": 1, "imm": -24}),
        ("lui", {"rd": 5, "imm": rvoracle._sext(0xFEDCB << 12, 32)}),
        ("auipc", {"rd": 6, "imm": 1 << 12}),
        ("srai", {"rd": 12, "rs1": 13, "imm": 31}),
        ("sltiu", {"rd": 14, "rs1": 15, "imm": 2047}),
        ("fence", {"rd": 0, "rs1": 0}),
        ("ecall", {}),
        ("ebreak", {}),
        ("csrrs", {"rd": 10, "rs1": 0, "csr": 0xC00}),
    ]
    got = [rvoracle.decode(w) for w in words(prog)]
    for (name, ops), decoded in zip(expect, got):
        assert decoded is not None
        assert decoded[0] == name
        for key, val in ops.items():
            assert decoded[1][key] == val, (name, key, decoded)


def test_li_expands_to_lui_addi_and_reconstructs_value():
    for value in (0, 10, -4, 2047, 2048, -2048, 0x12345678, 0xDEADBEEF, 0x7FFFFFFF, 0x80000000):
        prog = assemble(f"li a0, {value}", base=0)
        w = words(prog)
        assert len(w) == 2
        lui = rvoracle.decode(w[0])
        addi = rvoracle.decode(w[1])
        assert lui[0] == "lui" and addi[0] == "addi"
        reconstructed = (lui[1]["imm"] + addi[1]["imm"]) & 0xFFFFFFFF
        assert reconstructed == value & 0xFFFFFFFF, hex(value)


def test_labels_and_data_directives():
    src = """
        .equ MAGIC, 0x1234
        j over
    table:
        .word MAGIC, table
        .byte 1
        .balign 4
        .asciz "hi\\n"
    over:
        nop
    """
    prog = assemble(src, base=0x2000)
    assert prog.symbols["table"] == 0x2004
    assert prog.data[4:8] == (0x1234).to_bytes(4, "little")
    assert prog.data[8:12] == (0x2004).to_bytes(4, "little")
    assert prog.data[12] == 1
    assert prog.data[16:20] == b"hi\n\x00"
    j = rvoracle.decode(int.from_bytes(prog.data[0:4], "little"))
    assert j[0] == "jal" and j[1]["rd"] == 0
    assert j[1]["imm"] == prog.symbols["over"] - 0x2000


def test_branch_out_of_range_rejected():
    src = "beq x0, x0, far\n" + ".space 8192\n" + "far: nop\n"
    with pytest.raises(AsmError):
        assemble(src, base=0)


def test_unknown_mnemonic_and_redefinition_rejected():
    with pytest.raises(AsmError):
        assemble("mul a0, a1, a2", base=0)
    with pytest.raises(AsmError):
        assemble("a: nop\na: nop", base=0)


@pytest.mark.parametrize(
    "bad",
    [
        ".equ X",  # no value
        "li a0, 1/0",
        "li a0, 5 % 0",
        "li a0, 1 << -1",
        "csrrs a0, 0x1000, x0",  # CSR number wider than 12 bits
        "csrrwi a0, cycle, 32",  # zimm wider than 5 bits
        "slli a0, a0, 32",
        "lw a0, 2048(a1)",
        "ecall a0",  # ecall and ebreak take no operands
        # an expression is a sum of signed numbers and symbols, nothing more
        "li a0, 1 | 2",
        "li a0, ~0",
        "li a0, (4)",
        "lui a0, %hi(x)",
        # jal takes rd, label and jalr rd, rs1, imm: no short forms
        "jal target",
        "jalr a0",
    ],
)
def test_bad_source_fails_as_asm_error_naming_its_line(bad):
    with pytest.raises(AsmError) as exc:  # the symbols are defined, so only the syntax is bad
        assemble(f"nop\n{bad}\nnop\n", base=0, defines={"target": 0, "x": 0x12345})
    assert exc.value.line == 2
    assert str(exc.value).startswith("line 2: ")


def test_globl_is_an_unknown_directive():
    """Every label is already global, so no directive exports one."""
    with pytest.raises(AsmError, match=r"^line 2: unknown directive \.globl$"):
        assemble("_start: nop\n.globl _start\n", base=0)


def test_defines_feed_expressions():
    prog = assemble("li a0, BASE + 8", base=0, defines={"BASE": 0x100})
    w = words(prog)
    lui, addi = rvoracle.decode(w[0]), rvoracle.decode(w[1])
    assert (lui[1]["imm"] + addi[1]["imm"]) & 0xFFFFFFFF == 0x108


def test_sum_of_signed_terms():
    prog = assemble("li a0, END - START + 4\n.word -1", base=0,
                    defines={"START": 0x100, "END": 0x140})
    w = words(prog)
    lui, addi = rvoracle.decode(w[0]), rvoracle.decode(w[1])
    assert (lui[1]["imm"] + addi[1]["imm"]) & 0xFFFFFFFF == 0x44
    assert w[2] == 0xFFFFFFFF


def test_elf_round_trip():
    prog = assemble("_start: nop\n tohost: .word 0", base=0x10000)
    blob = program_to_elf(prog)
    image = parse_elf(blob)
    assert image.entry == 0x10000
    assert image.segments[0].vaddr == 0x10000
    assert image.segments[0].data == prog.data
    assert image.symbols["tohost"] == 0x10004
    assert image.symbols["_start"] == 0x10000


def test_elf_rejects_wrong_machine_and_dynamic():
    prog = assemble("nop", base=0x10000)
    blob = bytearray(program_to_elf(prog))
    blob[18] = 62  # EM_X86_64
    with pytest.raises(LoadError, match="RISC-V"):
        parse_elf(bytes(blob))
    blob = bytearray(program_to_elf(prog))
    blob[16] = 3  # ET_DYN
    with pytest.raises(LoadError, match="dynamically linked"):
        parse_elf(bytes(blob))
    with pytest.raises(LoadError, match="not an ELF"):
        parse_elf(b"\x00" * 64)


def test_zero_fill_memsz():
    blob = build_elf([Segment(0x10000, b"\x01\x02", 16)], entry=0x10000)
    image = parse_elf(blob)
    assert image.segments[0].memsz == 16
    assert image.max_addr == 0x10010


@pytest.mark.skipif(shutil.which("readelf") is None, reason="readelf not installed")
def test_readelf_agrees(tmp_path):
    prog = assemble("_start: nop\n j _start\n tohost: .word 0", base=0x10000)
    path = tmp_path / "t.elf"
    path.write_bytes(program_to_elf(prog))
    header = subprocess.run(
        ["readelf", "-h", str(path)], capture_output=True, text=True, check=True
    ).stdout
    assert "RISC-V" in header
    assert "EXEC" in header
    assert "0x10000" in header
    segs = subprocess.run(
        ["readelf", "-lW", str(path)], capture_output=True, text=True, check=True
    ).stdout
    assert "LOAD" in segs
    syms = subprocess.run(
        ["readelf", "-sW", str(path)], capture_output=True, text=True, check=True
    ).stdout
    assert "tohost" in syms
    assert "00010008" in syms
