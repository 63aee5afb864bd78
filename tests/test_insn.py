"""Decoder unit tests plus the cross-check against the independent oracle."""

import random

import pytest
from hypothesis import given, strategies as st

import rvoracle
from tilesim.errors import DecodeError
from tilesim.rv32.insn import OpClass, decode


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
