"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

Criteria (all primary):
  1. latency golden numbers (17/17 cached, 113/113 uncached exact; jittered
     uncached within [112, 114] over 100 trials; derived true hit 4)
  2. ISA correctness (bundled suite 100%; 1000 random encodings vs the
     independent decoder oracle)
  3. coherence soundness (corpus trace replay, exhaustive desk-scale
     interleavings, zero forbidden litmus outcomes)
  4. syscall proxy end-to-end (hello world; 1000-request mailbox fuzz)
  5. working-set effect (binsearch misses >= 5x hanoi under the 8KB cache)
  6. determinism (byte-identical stats for every command, same config+seed)
"""

import contextlib
import json
import random

import flat_oracle
import rvoracle
import sc_oracle
import test_insn
from test_cli import run_cli
from tilesim import corpus, mailbox as mb
from tilesim.config import MAILBOX_SIZE
from tilesim.harness import l15_data_miss_rate, run_latency_probe
from tilesim.litmus import Op, TESTS, explore, run_litmus
from tilesim.machine import Machine
from tilesim.mem.fabric import FabricPort


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number} PASS: {title}")


def test_criterion_1_latency_golden_numbers(config, probe_no_jitter):
    with criterion(1, "memory latency golden numbers"):
        exact = probe_no_jitter
        assert exact.cached_load == 17
        assert exact.cached_store == 17
        assert exact.uncached_load == 113
        assert exact.uncached_store == 113
        assert exact.true_hit == (17 - 5) / 3 == 4.0
        jittered = run_latency_probe(config, jitter=True, trials=100)
        assert len(jittered.uncached_load_trials) == 100
        assert len(jittered.uncached_store_trials) == 100
        for value in jittered.uncached_load_trials + jittered.uncached_store_trials:
            assert 112 <= value <= 114, value


def test_criterion_2_isa_correctness(config, isa_suite_report):
    with criterion(2, "ISA correctness (suite 100% + decoder/semantics oracle)"):
        report = isa_suite_report
        assert report.ok
        assert report.failed == 0 and report.malformed == 0
        assert report.passed == len(report.verdicts) >= 40
        # 1,000 random encodings against the independent table decoder
        rng = random.Random(2026)
        words = [rng.getrandbits(32) for _ in range(500)]
        templates = [match for _, match, _, _ in rvoracle._TABLE]
        words += [rng.choice(templates) | (rng.getrandbits(25) << 7) for _ in range(500)]
        assert len(words) == 1000
        for word in words:
            test_insn._assert_agrees(word)  # full operand-level comparison
        _semantics_oracle_1000(config, rng)


_RR_OPS = ["add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and"]
_RI_OPS = ["addi", "slti", "sltiu", "xori", "ori", "andi"]


def _semantics_oracle_1000(config, rng):
    """Execute 1,000 random ALU instructions on the core and compare every
    architectural result against the independent reference ALU (expected
    values computed and frozen before the run)."""
    import dataclasses

    from tilesim.asm import assemble
    from tilesim.elf import program_to_elf

    cfg = dataclasses.replace(config, guest_region_size=512 * 1024,
                              dram_size=2 * 1024 * 1024, stack_size=4096)
    cfg.validate()
    buffer_base = cfg.guest_base + 0x40000
    lines = ["_start:"]
    expected = []
    for i in range(1000):
        if rng.random() < 0.6:
            op = rng.choice(_RR_OPS)
            a, b = rng.getrandbits(32), rng.getrandbits(32)
            expected.append(rvoracle.alu(op, a, b))
            lines += [f"    li t0, {a}", f"    li t1, {b}", f"    {op} t2, t0, t1"]
        else:
            op = rng.choice(_RI_OPS)
            a, imm = rng.getrandbits(32), rng.randint(-2048, 2047)
            expected.append(rvoracle.alu(op, a, imm))
            lines += [f"    li t0, {a}", f"    {op} t2, t0, {imm}"]
        lines += [f"    li s0, {buffer_base + 4 * i}", "    sw t2, 0(s0)"]
    lines.append("    ecall")
    blob = program_to_elf(assemble("\n".join(lines), base=cfg.guest_base))
    machine = Machine(cfg, binary=blob)
    machine.run()
    assert "ecall" in (machine.trap or ""), machine.trap
    port = FabricPort(machine.fabric, cfg.guest_tile())
    for i, want in enumerate(expected):
        got, _ = port.load(buffer_base + 4 * i, 4)
        assert got == want, f"case {i}: got {got:#x}, reference {want:#x}"


def test_criterion_3_coherence_soundness(runs):
    with criterion(3, "coherence soundness (oracle replay + exhaustive exploration)"):
        # (a) full bench corpus transaction logs vs the flat-memory oracle
        total_loads = 0
        for name in corpus.BENCH_NAMES:
            # raises on any mismatch
            _, loads = flat_oracle.replay_file(str(runs(name, traced=True).trace))
            assert loads > 1000, f"{name}: suspiciously small trace"
            total_loads += loads
        assert total_loads > 10_000
        # (b) exhaustive interleavings, 2 cores x 1 line x <= 6 ops
        line = 0x9000
        mixes = [
            [[Op("st", line, 1), Op("ld", line)], [Op("st", line, 2), Op("ld", line)]],
            [[Op("st", line, 1), Op("st", line, 3), Op("ld", line)],
             [Op("st", line, 2), Op("ld", line), Op("ld", line)]],
            [[Op("ld", line), Op("st", line, 7), Op("ld", line)],
             [Op("ld", line), Op("st", line, 9), Op("ld", line)]],
        ]
        for programs in mixes:
            observed = explore(programs)  # invariant-checked, completes = no deadlock
            oracle = sc_oracle.enumerate_sc(
                [[("st", o.addr, o.value) if o.kind == "st" else ("ld", o.addr)
                  for o in p] for p in programs]
            )
            assert observed == oracle
        # litmus: zero forbidden outcomes
        for name in TESTS:
            assert run_litmus(name)["forbidden_count"] == 0


def test_criterion_4_syscall_proxy_end_to_end(runs):
    with criterion(4, "syscall proxy end-to-end + mailbox fuzz"):
        hello = runs("hello")
        assert hello.stdout == b"hello\n"
        assert hello.counters["exit_status"] == 0
        # 1,000 randomized syscalls, poll intervals 1..200, serviced exactly once
        import test_mailbox

        fabric, guest, host = test_mailbox.make_pair()
        rng = random.Random(41)
        serviced = []

        def fn(number, args):
            serviced.append(number)
            return number + 1, 0

        timer = rng.randint(1, 200)
        for serial in range(1000):
            number = rng.getrandbits(12)
            guest.start(number, [serial])
            result = None
            while result is None:
                result = guest.step()
                timer -= 1
                if timer == 0:
                    req = host.poll()
                    if req is not None:
                        host.complete(*fn(req.number, req.args))
                    timer = rng.randint(1, 200)
            assert result == (number + 1, 0)
        assert len(serviced) == 1000
        port = FabricPort(fabric, 0)
        for off in range(mb.OFF_RESERVED, MAILBOX_SIZE, 4):
            assert port.load(test_mailbox.MB_BASE + off, 4)[0] == 0


def test_criterion_5_working_set_effect(config, runs):
    with criterion(5, "working-set effect on private-cache miss rates"):
        tile = config.guest_tile()
        assert runs("hanoi").stdout == b"moves=127\n"
        binsearch = l15_data_miss_rate(runs("binsearch").counters, tile)
        hanoi = l15_data_miss_rate(runs("hanoi").counters, tile)
        assert hanoi > 0
        assert binsearch >= 5 * hanoi, (
            f"binsearch {binsearch:.4f} not >= 5x hanoi {hanoi:.4f}"
        )


def test_criterion_6_determinism_of_every_command(config, tmp_path, capsys):
    with criterion(6, "byte-identical outputs for identical config and seed"):
        hello = tmp_path / "hello.elf"
        hello.write_bytes(corpus.hello_elf(config))
        sandbox = tmp_path / "box"
        sandbox.mkdir()

        def run_twice(args, stats_name=None):
            results = []
            for i in range(2):
                full = list(args)
                if stats_name:
                    full += ["--stats-out", str(tmp_path / f"{stats_name}{i}.json")]
                code, text = run_cli(full), capsys.readouterr().out
                blob = (tmp_path / f"{stats_name}{i}.json").read_bytes() if stats_name else b""
                results.append((code, text, blob))
            assert results[0] == results[1], args
            return results[0]

        code, _, blob = run_twice(
            ["run", "--binary", str(hello), "--sandbox", str(sandbox)], "run")
        assert code == 0 and json.loads(blob)["exit_status"] == 0
        for name in ("hanoi", "binsearch", "quicksort"):
            run_twice(["bench", name], f"bench-{name}")
        run_twice(["test-rv32ui"])
        run_twice(["latency-probe", "--no-jitter"])
        run_twice(["latency-probe", "--trials", "10"])
        run_twice(["litmus", "mp"])
        run_twice(["litmus", "sb"])
