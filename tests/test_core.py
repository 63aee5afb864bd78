"""Guest core semantics and cycle accounting."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import rvoracle
from tilesim.asm import assemble
from tilesim.config import TimingConfig, load_config
from tilesim.errors import ConfigError, MemoryFault, SimError
from tilesim.rv32.core import RunState, Rv32Core
from tilesim.rv32.insn import decode, encode


class FlatPort:
    """Memory port with fixed latencies over a plain byte store (no caches)."""

    def __init__(self, fetch_cycles=4, data_cycles=4, size=1 << 20):
        self.mem = bytearray(size)
        self.fetch_cycles = fetch_cycles
        self.data_cycles = data_cycles

    def write_program(self, program):
        off = program.base
        self.mem[off : off + len(program.data)] = program.data

    def _check(self, addr, width):
        if addr + width > len(self.mem):
            raise MemoryFault(addr)

    def fetch(self, addr):
        self._check(addr, 4)
        return int.from_bytes(self.mem[addr : addr + 4], "little"), self.fetch_cycles

    def load(self, addr, width):
        self._check(addr, width)
        return int.from_bytes(self.mem[addr : addr + width], "little"), self.data_cycles

    def store(self, addr, width, value):
        self._check(addr, width)
        self.mem[addr : addr + width] = value.to_bytes(width, "little")
        return self.data_cycles


def make_core(source, **kwargs):
    port = FlatPort(**{k: v for k, v in kwargs.items() if k.endswith("cycles")})
    prog = assemble(source, base=0x1_0000)
    port.write_program(prog)
    core = Rv32Core(port=port, reset_vector=0x1_0000)
    core.deliver_start_interrupt()
    return core, port


def run_steps(core, n):
    """Run up to n steps, stopping early once the core halts."""
    for _ in range(n):
        if core.run_state is not RunState.RUNNING:
            break
        core.step()


def test_addi_writes_register():
    core, _ = make_core("addi x1, x0, 10")
    core.step()
    assert core.regs[1] == 10
    assert core.pc == 0x1_0004


def test_add_wraps_modulo_2_32():
    core, _ = make_core("li t0, 0xFFFFFFFF\n li t1, 1\n add t2, t0, t1")
    run_steps(core, 5)
    assert core.regs[7] == 0


def test_x0_always_zero():
    core, _ = make_core("addi x0, x0, 5\n li x0, 123\n add x0, x0, x0")
    run_steps(core, 4)
    assert core.regs[0] == 0


def test_reset_gating():
    port = FlatPort()
    prog = assemble("addi x1, x0, 1", base=0x1_0000)
    port.write_program(prog)
    core = Rv32Core(port=port, reset_vector=0x1_0000)
    assert core.run_state is RunState.HELD_IN_RESET
    with pytest.raises(SimError):
        core.step()
    core.deliver_start_interrupt()
    assert core.run_state is RunState.RUNNING
    assert core.pc == 0x1_0000
    core.deliver_start_interrupt()  # second delivery: recorded no-op
    assert core.ignored_start_interrupts == 1
    core.step()
    assert core.regs[1] == 1


def test_load_store_roundtrip_and_sign_extension():
    core, port = make_core(
        """
        li   t0, 0x20000
        li   t1, 0xDEADBEEF
        sw   t1, 0(t0)
        lw   t2, 0(t0)
        lb   t3, 0(t0)
        lbu  t4, 0(t0)
        lh   t5, 0(t0)
        lhu  t6, 0(t0)
        """
    )
    run_steps(core, 10)
    assert port.mem[0x20000:0x20004] == bytes.fromhex("efbeadde")  # little-endian bytes
    assert core.regs[7] == 0xDEADBEEF
    assert core.regs[28] == 0xFFFFFFEF  # lb sign-extends 0xEF
    assert core.regs[29] == 0xEF
    assert core.regs[30] == 0xFFFFBEEF  # lh sign-extends 0xBEEF
    assert core.regs[31] == 0xBEEF


def test_misaligned_data_traps():
    core, _ = make_core("li t0, 0x20001\n lw t1, 0(t0)")
    run_steps(core, 3)
    assert core.run_state is RunState.HALTED
    assert "misaligned load" in core.halt_reason
    core2, _ = make_core("li t0, 0x20002\n sw t0, 0(t0)")
    run_steps(core2, 3)
    assert "misaligned store" in core2.halt_reason


def test_misaligned_fetch_traps():
    core, _ = make_core("li t0, 0x10002\n jr t0")
    run_steps(core, 4)
    assert core.run_state is RunState.HALTED
    assert "misaligned fetch" in core.halt_reason


def test_jalr_clears_bit0_no_trap():
    core, _ = make_core("li t0, target + 1\n jr t0\n nop\n target: addi a0, x0, 7")
    run_steps(core, 4)
    assert core.regs[10] == 7


def test_ecall_ebreak_halt():
    core, _ = make_core("ecall")
    core.step()
    assert core.run_state is RunState.HALTED and "ecall" in core.halt_reason
    core, _ = make_core("ebreak")
    core.step()
    assert "ebreak" in core.halt_reason


def test_unknown_csr_and_csr_write_trap():
    core, _ = make_core("csrrs a0, 0x300, x0")  # mstatus does not exist here
    core.step()
    assert "csr 0x300" in core.halt_reason
    core, _ = make_core("csrrw a0, cycle, t0")
    core.step()
    assert "csr write" in core.halt_reason


def test_memory_fault_traps():
    core, _ = make_core("li t0, 0xFF000000\n lw t1, 0(t0)")
    run_steps(core, 3)
    assert "load fault" in core.halt_reason


def test_decode_error_halts_with_diagnostics():
    core, port = make_core("nop")
    port.mem[0x1_0000:0x1_0004] = (0xFFFFFFFF).to_bytes(4, "little")
    core.step()
    assert core.run_state is RunState.HALTED
    assert "0xffffffff" in core.halt_reason


def test_cycle_accounting_breakdown():
    # fetch=4, alu exec=3 -> 7 for addi; load: 4 + 5 + 4 = 13
    core, _ = make_core("addi x1, x0, 1\n li t0, 0x20000\n lw t1, 0(t0)")
    r1 = core.step()
    assert (r1.fetch_cycles, r1.exec_cycles, r1.data_cycles) == (4, 3, 0)
    assert r1.cycles == 7
    run_steps(core, 2)  # li
    r2 = core.step()
    assert (r2.fetch_cycles, r2.exec_cycles, r2.data_cycles) == (4, 5, 4)
    assert r2.cycles == 13
    assert core.cycle_counter == 7 + 7 + 7 + 13


def test_load_consumes_five_execution_cycles_plus_memory():
    core, _ = make_core("li t0, 0x20000\n lw t1, 0(t0)", data_cycles=100)
    run_steps(core, 2)
    result = core.step()
    assert result.exec_cycles == 5
    assert result.cycles == 4 + 5 + 100


def test_rdcycle_fresh_state_reads_zero():
    core, _ = make_core("rdcycleh a0")
    assert core.cycle_counter == 0
    core.regs[10] = 0xFFFF_FFFF  # so that the read must write the zero
    core.step()
    assert core.regs[10] == 0


def test_rdcycleh_zero_below_2_32():
    core, _ = make_core("rdcycleh a0\n rdcycle a1")
    run_steps(core, 2)
    assert core.regs[10] == 0
    assert core.regs[11] > 0


def test_rdcycle_costs_exactly_its_fetch():
    core, _ = make_core("rdcycle a0\n rdcycle a1")
    r = core.step()
    assert r.cycles == 4  # fetch only: CSR reads carry zero execution cycles
    assert core.regs[10] == 4  # retire-point sample
    core.step()
    assert core.regs[11] - core.regs[10] == 4


def test_bracketed_load_delta_is_17_with_flat_4_cycle_memory():
    # the probe arithmetic on a flat 4-cycle port: 4 (lw fetch) + 5 + 4 + 4 = 17
    core, _ = make_core(
        """
        li t0, 0x20000
        rdcycle a0
        lw t1, 0(t0)
        rdcycle a1
        """
    )
    run_steps(core, 5)
    assert core.regs[11] - core.regs[10] == 17


def test_branch_taken_and_not_taken():
    core, _ = make_core(
        """
        li  t0, 5
        li  t1, 5
        bne t0, t1, bad
        beq t0, t1, good
    bad:
        li a0, 1
        j end
    good:
        li a0, 2
    end:
        nop
        """
    )
    run_steps(core, 12)
    assert core.regs[10] == 2


def test_determinism_same_program_same_counters():
    src = "li t0, 0x20000\n li t1, 99\n sw t1, 4(t0)\n lw t2, 4(t0)\n ecall"
    a, _ = make_core(src)
    b, _ = make_core(src)
    run_steps(a, 50)
    run_steps(b, 50)
    assert a.cycle_counter == b.cycle_counter
    assert a.regs == b.regs
    assert a.pc == b.pc
    assert a.halt_reason == b.halt_reason


def test_timing_table_validation():
    with pytest.raises(ConfigError, match="alu_cycles"):
        TimingConfig(alu_cycles=-1).validate()
    with pytest.raises(ConfigError, match="load_store_exec_cycles"):
        TimingConfig(load_store_exec_cycles=0).validate()


def test_bad_class_timing_fails_at_config_load(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"timing": {"alu_cycles": -1}}')
    with pytest.raises(ConfigError, match="alu_cycles"):
        load_config(str(path))


# Every trap kind: its source, a word of its halt reason, and the (fetch, exec)
# split of the trapping step with fetch=6 and the default execution table
# (load/store 5, system 0)
_TRAPS = {
    "misaligned fetch": ("li t0, 0x10002\n jr t0", "misaligned fetch", (0, 0)),
    "fetch fault": ("li t0, 0x200000\n jr t0", "fetch fault", (0, 0)),  # past FlatPort's 1 MB
    "decode error": (None, "0xffffffff", (6, 0)),
    "misaligned load": ("li t0, 0x20001\n lw t1, 0(t0)", "misaligned load", (6, 5)),
    "misaligned store": ("li t0, 0x20002\n sw t0, 0(t0)", "misaligned store", (6, 5)),
    "load fault": ("li t0, 0xFF000000\n lw t1, 0(t0)", "load fault", (6, 5)),
    "store fault": ("li t0, 0xFF000000\n sw t1, 0(t0)", "store fault", (6, 5)),
    "ecall": ("ecall", "ecall", (6, 0)),
    "csr write": ("csrrw a0, cycle, t0", "csr write attempt", (6, 0)),
    "unknown csr": ("csrrs a0, 0x300, x0", "csr 0x300", (6, 0)),
}


@pytest.mark.parametrize("kind", list(_TRAPS))
def test_a_trapping_step_splits_its_cycles(kind):
    source, reason, split = _TRAPS[kind]
    core, port = make_core(source or "nop", fetch_cycles=6)
    if source is None:
        port.mem[0x1_0000:0x1_0004] = (0xFFFFFFFF).to_bytes(4, "little")
    total = 0
    while core.run_state is RunState.RUNNING:
        r = core.step()
        assert r.cycles == r.fetch_cycles + r.exec_cycles + r.data_cycles
        total += r.cycles
    assert core.halt_reason is not None and reason in core.halt_reason
    assert (r.fetch_cycles, r.exec_cycles, r.data_cycles) == (*split, 0)
    assert core.cycle_counter == total


_ALU_RR = ["add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and"]
_ALU_RI = ["addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai"]
_EDGES = (0, 1, -1, 0x7FFFFFFF, 0x80000000)
_SHIFT_AMOUNTS = (0, 31, 32, 33)


@pytest.mark.parametrize("op", _ALU_RR + _ALU_RI)
def test_alu_table_matches_the_oracle_on_edge_values(op):
    """Every OP and OP_IMM mnemonic on edge operands; register shift amounts
    of 32 and more must wrap mod 32."""
    port = FlatPort()
    core = Rv32Core(port=port, reset_vector=0x1_0000)
    core.deliver_start_interrupt()
    if op in _ALU_RR:
        cases = [(encode(op, rd=7, rs1=5, rs2=6), b) for b in _EDGES + _SHIFT_AMOUNTS]
    else:
        imms = (0, 1, 31) if op in ("slli", "srli", "srai") else (0, 1, -1, 2047, -2048)
        cases = [(encode(op, rd=7, rs1=5, imm=imm), imm) for imm in imms]
    for word, b in cases:
        port.mem[0x1_0000:0x1_0004] = word.to_bytes(4, "little")
        for a in _EDGES:
            core.pc = 0x1_0000
            core.regs[5], core.regs[6] = a & 0xFFFFFFFF, b & 0xFFFFFFFF
            core.step()
            assert core.regs[7] == rvoracle.alu(op, a, b), (op, hex(a), b)


# -- property tests ------------------------------------------------------------

@given(
    op=st.sampled_from(_ALU_RR),
    a=st.integers(min_value=0, max_value=0xFFFFFFFF),
    b=st.integers(min_value=0, max_value=0xFFFFFFFF),
)
@settings(max_examples=300, deadline=None)
def test_rr_alu_matches_reference(op, a, b):
    core, _ = make_core(f"li t0, {a}\n li t1, {b}\n {op} t2, t0, t1")
    run_steps(core, 5)
    assert core.regs[7] == rvoracle.alu(op, a, b), (op, hex(a), hex(b))


@given(
    op=st.sampled_from(_ALU_RI),
    a=st.integers(min_value=0, max_value=0xFFFFFFFF),
    imm=st.integers(min_value=-2048, max_value=2047),
)
@settings(max_examples=300, deadline=None)
def test_ri_alu_matches_reference(op, a, imm):
    if op in ("slli", "srli", "srai"):
        imm &= 31
    core, _ = make_core(f"li t0, {a}\n {op} t1, t0, {imm}")
    run_steps(core, 3)
    assert core.regs[6] == rvoracle.alu(op, a, imm), (op, hex(a), imm)


@given(
    op=st.sampled_from(["beq", "bne", "blt", "bge", "bltu", "bgeu"]),
    a=st.integers(min_value=0, max_value=0xFFFFFFFF),
    b=st.integers(min_value=0, max_value=0xFFFFFFFF),
)
@settings(max_examples=200, deadline=None)
def test_branches_match_reference(op, a, b):
    core, _ = make_core(
        f"li t0, {a}\n li t1, {b}\n {op} t0, t1, taken\n li a0, 1\n j end\n"
        "taken: li a0, 2\n end: nop"
    )
    run_steps(core, 10)
    expected = 2 if rvoracle.branch_taken(op, a, b) else 1
    assert core.regs[10] == expected


@given(st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_x0_stays_zero_on_random_streams(stream):
    """regs[0] == 0 after every step, for arbitrary (often trapping) words."""
    port = FlatPort()
    for i, word in enumerate(stream):
        port.mem[0x1_0000 + i * 4 : 0x1_0004 + i * 4] = word.to_bytes(4, "little")
    core = Rv32Core(port=port, reset_vector=0x1_0000)
    core.deliver_start_interrupt()
    for _ in range(len(stream)):
        if core.run_state is not RunState.RUNNING:
            break
        before = core.cycle_counter
        core.step()
        assert core.regs[0] == 0
        assert core.cycle_counter >= before  # non-decreasing


def test_instrumented_cycle_delta_equals_sum_of_parts():
    rng = random.Random(7)
    ops = ["addi x1, x0, 1", "add x2, x1, x1", "lui x3, 4", "nop",
           "li t0, 0x20000", "lw t1, 0(t0)", "sw t1, 4(t0)", "fence", "rdcycle a0"]
    src = "\n".join(rng.choice(ops) for _ in range(60))
    core, port = make_core(src)
    total = 0
    for _ in range(60):
        if core.run_state is not RunState.RUNNING:
            break
        word = int.from_bytes(port.mem[core.pc : core.pc + 4], "little")
        opclass = decode(word, core.pc).opclass
        r = core.step()
        assert r.cycles == r.fetch_cycles + r.exec_cycles + r.data_cycles
        assert (r.data_cycles > 0) == (opclass.value in ("load", "store"))
        total += r.cycles
    assert core.cycle_counter == total


# -- self-modifying code -----------------------------------------------------------

# Runs the slot once (a0 = 1, kept in s2), overwrites it with
# `addi a0, x0, 7` and branches back to it. A decode cache keyed by pc would
# run the stale `addi a0, x0, 1` again.
_STORE_TO_CODE = """
slot:
    addi a0, x0, 1
    bnez s1, done
    mv   s2, a0
    li   t0, slot
    li   t1, 0x00700513
    sw   t1, 0(t0)
    li   s1, 1
    j    slot
done:
    ecall
"""


def _run_store_to_code(core):
    run_steps(core, 40)
    assert core.halt_reason.startswith("trap: ecall")
    assert core.regs[18] == 1  # s2: the slot's first run
    assert core.regs[10] == 7  # a0: the rewritten slot


def test_store_over_code_runs_the_new_word_on_flat_port():
    core, _ = make_core(_STORE_TO_CODE)
    _run_store_to_code(core)


def test_store_over_code_runs_the_new_word_through_the_fabric():
    from tilesim.config import MachineConfig
    from tilesim.mem.fabric import FabricPort, MemoryFabric
    from tilesim.noc import Noc

    config = MachineConfig()
    config.validate()
    fabric = MemoryFabric(config, Noc(config.mesh, len(config.tiles)))
    prog = assemble(_STORE_TO_CODE, base=config.guest_base)
    loader = FabricPort(fabric, config.host_tile())
    for off in range(0, len(prog.data), 4):
        loader.store(prog.base + off, 4, int.from_bytes(prog.data[off : off + 4], "little"))
    guest = config.guest_tile()
    core = Rv32Core(port=FabricPort(fabric, guest), reset_vector=config.guest_base)
    core.deliver_start_interrupt()
    _run_store_to_code(core)
    # the fetches and the store met in the guest's private cache
    assert fabric.l15[guest].lookup(config.guest_base).state.value == "M"
    assert fabric.counts()[f"l15.tile{guest}.ifetch_hits"] > 0


def test_csr_set_or_clear_with_a_source_is_a_write_attempt():
    # csrrs/csrrc with rs1 != x0 (or a nonzero zimm) would write the counter
    for insn in ("csrrs a0, cycle, t0", "csrrc a0, cycle, t0",
                 "csrrsi a0, cycle, 1", "csrrci a0, cycle, 1"):
        core, _ = make_core(f"li t0, 1\n {insn}")
        run_steps(core, 3)
        assert "csr write attempt" in core.halt_reason, insn
        assert core.regs[10] == 0, insn
