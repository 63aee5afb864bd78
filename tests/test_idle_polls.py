"""Idle-poll fast-forward against the poll-by-poll loop.

With no trace open, the host sleeps after each poll: `Machine.run` steps the
guest alone until the host's cached copy of the status line goes invalid or
the run ends, then charges the skipped polls in one `skip_idle_polls` call.
An open trace (here on the null device) turns that off, so the traced run is
the reference: every run's stats JSON and stdout must match it byte for
byte, and an untraced run makes at most one charge per real poll.

The benchmark guests' traced runs write a real trace file, and their seed-0
stats JSON, stdout and trace are locked in tests/golden/benchmarks.json.
"""

import dataclasses
import importlib
import os
from pathlib import Path

import pytest

from test_golden import LAYOUTS, load_golden, sha256
from tilesim import corpus
from tilesim.asm import assemble
from tilesim.config import MachineConfig
from tilesim.elf import parse_elf, program_to_elf
from tilesim.harness import _suite_config, bundled_suite_elves
from tilesim.host import HostAgent
from tilesim.mailbox import OFF_STATUS, HostMailbox
from tilesim.machine import Machine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("workloads")


def status_recalls(machine) -> list:
    """Wrap the machine's L2 eviction; the list gets one entry for each
    recall that takes the host's copy of the mailbox status line."""
    fabric, host = machine.fabric, machine.config.host_tile()
    status = machine.config.region.mailbox_addr + OFF_STATUS
    status_line = status & ~(fabric.line_size - 1)
    evict_l2, recalls = fabric._evict_l2, []

    def on_evict_l2(home, victim, *args):
        held = victim.addr == status_line and fabric.l15[host].lookup(status_line) is not None
        evict_l2(home, victim, *args)
        if held and fabric.l15[host].lookup(status_line) is None:
            recalls.append(victim.addr)

    fabric._evict_l2 = on_evict_l2
    return recalls


def count_calls(monkeypatch, cls, name) -> list:
    """Wrap cls.name; the list gets one entry per call."""
    method, calls = getattr(cls, name), []

    def counted(self, *args, **kwargs):
        calls.append(None)
        return method(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def run_both(monkeypatch, tmp_path, config, binary, make_sandbox=lambda path: None,
             tohost=None, trace_path=os.devnull):
    """Run untraced, then traced into `trace_path`, and sweep the coherence
    invariants after each run; returns each run's (stats JSON, stdout,
    HostMailbox.poll calls, status-line recalls, (tohost value, trap))."""
    polls = count_calls(monkeypatch, HostMailbox, "poll")
    skips = count_calls(monkeypatch, HostAgent, "skip_idle_polls")
    results = {}
    for trace_path in (None, trace_path):
        polls.clear()
        skips.clear()
        sandbox = make_sandbox(str(tmp_path / f"sandbox-{trace_path is None}"))
        machine = Machine(config, binary=binary, sandbox_dir=sandbox or str(tmp_path),
                          trace_path=trace_path)
        if tohost is not None:
            machine.watch_tohost(tohost)
        recalls = status_recalls(machine)
        stats = machine.run()
        machine.fabric.check_global_invariants()
        # one charge per sleep, and a sleep follows a poll; traced runs never sleep
        assert len(skips) <= (len(polls) if trace_path is None else 0)
        results["traced" if trace_path else "untraced"] = (
            stats.to_json(), bytes(machine.stdout_data), len(polls), recalls,
            (machine.tohost_value, machine.trap))
    return results["untraced"], results["traced"]


def assert_equal_and_fast(untraced, traced):
    assert untraced[:2] == traced[:2]  # stats JSON and stdout
    assert untraced[2] * 10 < traced[2], f"{untraced[2]} polls untraced, {traced[2]} traced"


@pytest.mark.parametrize("seed", [0, 99])
@pytest.mark.parametrize("name", ["hanoi", "binsearch", "quicksort"])
def test_corpus_fast_path_equals_slow_path(name, seed, monkeypatch, tmp_path):
    cfg = MachineConfig(seed=seed)
    cfg.validate()
    assert_equal_and_fast(*run_both(monkeypatch, tmp_path, cfg, corpus.bench_elf(name, cfg)))


@pytest.mark.parametrize("layout", ["default", *sorted(LAYOUTS)])
def test_hello_fast_path_equals_slow_path(layout, monkeypatch, tmp_path):
    """guest-host-guest puts a guest below the host, so the guest wins ties.
    Poll intervals 1 and 6 start a host poll on the cycle of the guest store
    that wakes the host, so a wrong tie order shows there."""
    base = LAYOUTS.get(layout, MachineConfig())
    for interval in (base.poll_interval, *range(1, 9)):
        cfg = dataclasses.replace(base, poll_interval=interval)
        cfg.validate()
        untraced, traced = run_both(monkeypatch, tmp_path, cfg, corpus.hello_elf(cfg))
        assert untraced[:2] == traced[:2], f"poll_interval={interval}"
        assert untraced[1] == b"hello\n"
        assert untraced[2] < traced[2], f"poll_interval={interval}"


@pytest.mark.parametrize("name", ["memwalk", "sysio"])
def test_benchmark_guest_fast_path_equals_slow_path(name, workloads, monkeypatch, tmp_path):
    w = workloads.make(name, 0)
    cfg = w.config()
    trace = tmp_path / f"{name}.trace"
    untraced, traced = run_both(monkeypatch, tmp_path, cfg, w.build(cfg), w.make_sandbox,
                                trace_path=str(trace))
    assert_equal_and_fast(untraced, traced)
    assert untraced[1] == w.expected_stdout
    got = {"stats": sha256(traced[0].encode()), "stdout": sha256(traced[1]),
           "trace": sha256(trace.read_bytes())}
    assert got == load_golden("benchmarks.json")[name]
    if name == "memwalk":
        # the larger-than-L2 pass evicts the status line from its L2 slice,
        # and that recall is what wakes the sleeping host
        assert untraced[3] and untraced[3] == traced[3]


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
def test_run_ending_while_host_sleeps(name, suite, monkeypatch, tmp_path):
    """A trap or a tohost write ends the run with no syscall, so the host may
    be asleep then, and the polls of its last sleep are charged at the end."""
    blob = suite[name]
    tohost = parse_elf(blob).symbols["tohost"]
    for interval in range(1, 9):
        cfg = _suite_config(MachineConfig(poll_interval=interval))
        untraced, traced = run_both(monkeypatch, tmp_path, cfg, blob, tohost=tohost)
        assert untraced[0] == traced[0], f"poll_interval={interval}"  # stats JSON
        assert untraced[4] == traced[4], f"poll_interval={interval}"  # (tohost, trap)
        value, trap = untraced[4]
        assert (trap is not None) == name.endswith("-trap"), f"poll_interval={interval}"
        assert trap is not None or value == 1, f"poll_interval={interval}"
