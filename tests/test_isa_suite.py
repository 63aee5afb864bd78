"""The bundled ISA suite and the suite runner's conventions."""

from tilesim.asm import assemble
from tilesim.corpus import rv32ui
from tilesim.elf import program_to_elf
from tilesim.harness import run_isa_suite, run_isa_test, _suite_config


def test_bundled_suite_passes_100_percent(isa_suite_report):
    report = isa_suite_report
    failed = [v for v in report.verdicts if v.outcome != "pass"]
    assert not failed, "\n".join(f"{v.name}: {v.detail}" for v in failed)
    assert report.passed == len(report.verdicts)
    assert report.ok


def test_suite_covers_every_base_instruction(config):
    names = set(rv32ui.suite())
    ops = {
        "lui", "auipc", "jal", "jalr", "beq", "bne", "blt", "bge", "bltu", "bgeu",
        "lb", "lh", "lbu", "lhu", "sb", "sh",
        "addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai",
        "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
        "fence", "rdcycle",
    }
    missing = {op for op in ops if op not in names}
    assert not missing, f"instructions without a dedicated test: {missing}"
    assert "sw_lw" in names  # lw/sw share the store/load round-trip program
    # edge-case programs
    for extra in ("x0_discard", "wraparound", "misalign_lw-trap", "misalign_fetch-trap"):
        assert extra in names


def test_deliberately_corrupted_test_fails_with_code_3(config):
    source = """
_start:
    li   x1, 3
    la   x2, tohost
    sw   x1, 0(x2)
loop:
    j    loop
    .balign 8
tohost:
    .word 0
"""
    cfg = _suite_config(config)
    blob = program_to_elf(assemble(source, base=cfg.guest_base))
    verdict = run_isa_test("corrupted", blob, cfg)
    assert verdict.outcome == "fail"
    assert "tohost=3" in verdict.detail


def test_elf_without_tohost_is_malformed_not_failed(config):
    cfg = _suite_config(config)
    blob = program_to_elf(assemble("_start: nop\n j _start", base=cfg.guest_base))
    verdict = run_isa_test("no-tohost", blob, cfg)
    assert verdict.outcome == "malformed"


def test_empty_suite_dir_reports_zero_and_not_ok(tmp_path, config):
    report = run_isa_suite(config, suite_dir=str(tmp_path))
    assert len(report.verdicts) == 0
    assert not report.ok


def test_external_dir_runs_elves(tmp_path, config):
    cfg = _suite_config(config)
    source = rv32ui.suite()["add"]
    blob = program_to_elf(assemble(source, base=cfg.guest_base))
    (tmp_path / "add.elf").write_bytes(blob)
    (tmp_path / "junk.elf").write_bytes(b"not an elf at all")
    report = run_isa_suite(config, suite_dir=str(tmp_path))
    outcomes = {v.name: v.outcome for v in report.verdicts}
    assert outcomes == {"add": "pass", "junk": "malformed"}
    assert report.ok


def test_trap_test_expectation_inverts(config):
    """A trap test that does NOT trap must fail."""
    cfg = _suite_config(config)
    source = """
_start:
    li   x1, 1
    la   x2, tohost
    sw   x1, 0(x2)
loop:
    j    loop
    .balign 8
tohost:
    .word 0
"""
    blob = program_to_elf(assemble(source, base=cfg.guest_base))
    verdict = run_isa_test("bogus-trap", blob, cfg)
    assert verdict.outcome == "fail"
    assert "expected a trap" in verdict.detail
