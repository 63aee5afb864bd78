"""Decoder unit tests plus the cross-check against the independent oracle."""

import random

import pytest
from hypothesis import given, strategies as st

import rvoracle
from tilesim.errors import DecodeError
from tilesim.rv32.insn import ENCODINGS, OpClass, decode, encode


def test_canonical_nop():
    insn = decode(0x00000013)
    assert insn.opclass is OpClass.OP_IMM
    assert insn.mnemonic == "addi"
    assert (insn.rd, insn.rs1, insn.imm) == (0, 0, 0)


def test_addi_x1_x0_10():
    insn = decode(0x00A00093)
    assert insn.mnemonic == "addi"
    assert (insn.rd, insn.rs1, insn.imm) == (1, 0, 10)


def test_rdcycle_a0():
    insn = decode(0xC0002573)
    assert insn.opclass is OpClass.SYSTEM
    assert insn.mnemonic == "csrrs"
    assert (insn.rd, insn.rs1, insn.csr) == (10, 0, 0xC00)


def test_decode_error_carries_word_and_pc():
    with pytest.raises(DecodeError) as exc:
        decode(0xFFFFFFFF, pc=0x1234)
    assert exc.value.word == 0xFFFFFFFF
    assert exc.value.pc == 0x1234


@pytest.mark.parametrize(
    "word",
    [
        0x02A282B3,  # mul x5,x5,x10 (RV32M)
        0x02A2C2B3,  # div (RV32M)
        0x0000100F,  # fence.i (Zifencei)
        0x00052087,  # flw (RV32F)
        0x1005202F,  # lr.w (RV32A)
        0x30200073,  # mret (privileged)
        0x10500073,  # wfi (privileged)
        0x00000001,  # compressed encoding space
        0x00000000,  # all-zero is defined illegal
    ],
)
def test_unsupported_encodings_rejected(word):
    with pytest.raises(DecodeError):
        decode(word)


def _assert_agrees(word):
    expected = rvoracle.decode(word)
    try:
        got = decode(word)
    except DecodeError:
        assert expected is None, (
            f"0x{word:08x}: oracle says {expected}, package decoder rejected it"
        )
        return
    assert expected is not None, f"0x{word:08x}: package decoded {got}, oracle rejects"
    name, ops = expected
    assert got.mnemonic == name, f"0x{word:08x}: {got.mnemonic} != {name}"
    for key, value in ops.items():
        if key == "zimm":
            assert got.rs1 == value
        elif key == "csr":
            assert got.csr == value
        else:
            assert getattr(got, key) == value, f"0x{word:08x} field {key}"


def test_disassembler_oracle_1000_random_encodings():
    # half uniform random words, half field-randomized valid templates
    rng = random.Random(0xDEC0DE)
    words = [rng.getrandbits(32) for _ in range(500)]
    templates = [match for _, match, _, _ in rvoracle._TABLE]
    for _ in range(500):
        base = rng.choice(templates)
        scrambled = base | (rng.getrandbits(25) << 7)  # keep the opcode, scramble the rest
        words.append(scrambled)
    assert len(words) == 1000
    for word in words:
        _assert_agrees(word)


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_decoder_matches_oracle_everywhere(word):
    _assert_agrees(word)


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_branch_offsets_are_even_and_signed(imm):
    # encode a beq with the immediate's encodable bits and confirm round-trip
    imm &= 0x1FFE  # 13-bit, bit 0 forced to zero
    word = (
        0x63
        | (((imm >> 11) & 1) << 7)
        | (((imm >> 1) & 0xF) << 8)
        | (((imm >> 5) & 0x3F) << 25)
        | (((imm >> 12) & 1) << 31)
    )
    insn = decode(word)
    oracle_imm = rvoracle.decode(word)[1]["imm"]
    assert insn.imm == oracle_imm
    assert insn.imm % 2 == 0


# Valid operands per format, written from the ISA listing rather than read
# from the package: the fields drawn and the immediate's (lowest, highest, step).
_OPERANDS = {
    "R": (("rd", "rs1", "rs2"), (0, 0, 1)),
    "I": (("rd", "rs1"), (-2048, 2047, 1)),
    "shift": (("rd", "rs1"), (0, 31, 1)),
    "S": (("rs1", "rs2"), (-2048, 2047, 1)),
    "B": (("rs1", "rs2"), (-4096, 4094, 2)),
    "U": (("rd",), (-(1 << 31), (1 << 31) - 4096, 4096)),
    "J": (("rd",), (-(1 << 20), (1 << 20) - 2, 2)),
    "CSR": (("rd", "rs1"), (0, 0xFFF, 1)),  # rs1 is zimm in the *i forms
    "fence": (("rd", "rs1"), (0, 0xFFF, 1)),  # pred/succ; neither side reports it
    "fixed": ((), (0, 0, 1)),
}


def test_encoding_table_matches_oracle_both_ways():
    """encode every mnemonic in the table with random valid operands (range
    ends included): the oracle and decode both read back the same fields."""
    assert set(ENCODINGS) == {name for _, _, name, _ in rvoracle._TABLE}
    rng = random.Random(0x7AB1E)
    for name, enc in ENCODINGS.items():
        regs, (lo, hi, step) = _OPERANDS[enc.fmt]
        for trial in range(40):
            fields = {reg: rng.randrange(32) for reg in regs}
            imm = (lo, hi)[trial] if trial < 2 else lo + step * rng.randrange((hi - lo) // step + 1)
            word = encode(name, imm=imm, **fields)
            if enc.fmt == "CSR":
                fields["csr"] = imm
            elif enc.fmt not in ("R", "fixed", "fence"):
                fields["imm"] = imm
            oracle_name, oracle_fields = rvoracle.decode(word)
            if "zimm" in oracle_fields:
                oracle_fields["rs1"] = oracle_fields.pop("zimm")
            assert (oracle_name, oracle_fields) == (name, fields), f"0x{word:08x}"
            insn = decode(word)
            assert insn.mnemonic == name and insn.raw == word
            assert {key: getattr(insn, key) for key in fields} == fields, f"0x{word:08x}"


@pytest.mark.parametrize(
    "name, fields",
    [
        ("addi", {"imm": 2048}),
        ("sw", {"imm": -2049}),
        ("beq", {"imm": 3}),  # odd offset
        ("jal", {"imm": 1 << 20}),
        ("lui", {"imm": 0x800}),  # not a multiple of 4096
        ("srai", {"imm": 32}),
        ("csrrs", {"imm": 0x1000}),
        ("csrrwi", {"rs1": 32}),
        ("add", {"rd": -1}),
        ("lui", {"rs1": 1}),  # U has no rs1
        ("ecall", {"imm": 1}),
    ],
)
def test_encode_rejects_fields_that_do_not_fit(name, fields):
    with pytest.raises(ValueError, match=rf"^{name}: "):
        encode(name, **fields)
