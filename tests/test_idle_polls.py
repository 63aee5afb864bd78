"""Idle-poll fast-forward against the poll-by-poll loop.

With no trace open, the host sleeps after each poll: `Machine.run` steps the
guest alone until the host's cached copy of the status line goes invalid or
the run ends, then charges the skipped polls in one `skip_idle_polls` call.
An open trace turns that off, so the traced run is the reference: every
run's stats JSON and stdout must match it byte for byte, and an untraced run
makes at most one charge per real poll.

The corpus, the benchmark guests and hello at its layouts' own poll interval
come from the session's run table (runs.py), whose traced runs write a real
trace file; the other runs here trace into the null device. The benchmark
guests' seed-0 stats JSON, stdout and trace are locked in
tests/golden/benchmarks.json.
"""

import dataclasses

import pytest

from runs import LAYOUTS, perfbench, run_both
from test_golden import load_golden, sha256, trace_digest
from tilesim import corpus
from tilesim.asm import assemble
from tilesim.config import MachineConfig
from tilesim.elf import parse_elf, program_to_elf
from tilesim.harness import _suite_config, bundled_suite_elves


def assert_equal_and_fast(untraced, traced):
    assert (untraced.stats, untraced.stdout) == (traced.stats, traced.stdout)
    assert untraced.polls * 10 < traced.polls, (
        f"{untraced.polls} polls untraced, {traced.polls} traced")


@pytest.mark.parametrize("seed", [0, 99])
@pytest.mark.parametrize("name", ["hanoi", "binsearch", "quicksort"])
def test_corpus_fast_path_equals_slow_path(name, seed, runs):
    assert_equal_and_fast(runs(name, seed), runs(name, seed, traced=True))


@pytest.mark.parametrize("layout", ["default", *sorted(LAYOUTS)])
def test_hello_fast_path_equals_slow_path(layout, runs, tmp_path):
    """guest-host-guest puts a guest below the host, so the guest wins ties.
    Poll intervals 1 and 6 start a host poll on the cycle of the guest store
    that wakes the host, so a wrong tie order shows there."""
    program = "hello" if layout == "default" else f"hello@{layout}"
    base = LAYOUTS.get(layout, MachineConfig())
    pairs = {base.poll_interval: (runs(program), runs(program, traced=True))}
    for interval in range(1, 9):
        cfg = dataclasses.replace(base, poll_interval=interval)
        cfg.validate()
        pairs[interval] = run_both(cfg, corpus.hello_elf(cfg), str(tmp_path))
    for interval, (untraced, traced) in pairs.items():
        assert (untraced.stats, untraced.stdout) == (traced.stats, traced.stdout), (
            f"poll_interval={interval}")
        assert untraced.stdout == b"hello\n"
        assert untraced.polls < traced.polls, f"poll_interval={interval}"


@pytest.mark.parametrize("name", ["memwalk", "sysio"])
def test_benchmark_guest_fast_path_equals_slow_path(name, runs):
    untraced, traced = runs(name), runs(name, traced=True)
    assert_equal_and_fast(untraced, traced)
    assert untraced.stdout == perfbench("workloads").make(name, 0).expected_stdout
    got = {"stats": sha256(traced.stats.encode()), "stdout": sha256(traced.stdout),
           "trace": trace_digest(traced.trace.read_bytes())}
    assert got == load_golden("benchmarks.json")[name]
    if name == "memwalk":
        # the larger-than-L2 pass evicts the status line from its L2 slice,
        # and that recall is what wakes the sleeping host
        assert untraced.recalls and untraced.recalls == traced.recalls


# the bundled trap programs halt before the host's first sleep has a poll due
LATE_TRAP = """
_start:
    li   x5, 300
spin:
    addi x5, x5, -1
    bne  x5, x0, spin
    la   x11, scratch
    lw   x12, 2(x11)
tohost:
    .word 0
scratch:
    .space 64
"""


@pytest.fixture(scope="module")
def suite():
    cfg = _suite_config(MachineConfig())
    elves = bundled_suite_elves(cfg)
    elves["late_misalign_lw-trap"] = program_to_elf(assemble(LATE_TRAP, base=cfg.guest_base))
    return elves


@pytest.mark.parametrize("name", ["misalign_fetch-trap", "misalign_lw-trap", "misalign_sw-trap",
                                  "late_misalign_lw-trap", "add", "lb", "sw_lw", "rdcycle"])
def test_run_ending_while_host_sleeps(name, suite, tmp_path):
    """A trap or a tohost write ends the run with no syscall, so the host may
    be asleep then, and the polls of its last sleep are charged at the end."""
    blob = suite[name]
    tohost = parse_elf(blob).symbols["tohost"]
    for interval in range(1, 9):
        cfg = _suite_config(MachineConfig(poll_interval=interval))
        untraced, traced = run_both(cfg, blob, str(tmp_path), tohost=tohost)
        assert untraced.stats == traced.stats, f"poll_interval={interval}"
        assert untraced.end == traced.end, f"poll_interval={interval}"  # (tohost, trap)
        value, trap = untraced.end
        assert (trap is not None) == name.endswith("-trap"), f"poll_interval={interval}"
        assert trap is not None or value == 1, f"poll_interval={interval}"
