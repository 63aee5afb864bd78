"""Idle-poll fast-forward against the poll-by-poll loop.

With no trace open, `Machine.run` charges the host's idle mailbox polls in
bulk while its cached copy of the status line stays valid. An open trace
(here on the null device) turns that off, so the traced run is the
reference: every run's stats JSON and stdout must match it byte for byte.
"""

import dataclasses
import importlib
import os
from pathlib import Path

import pytest

from test_golden import LAYOUTS
from tilesim import corpus
from tilesim.config import MachineConfig
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


def run_both(monkeypatch, tmp_path, config, binary, make_sandbox=lambda path: None):
    """Run untraced, then traced; returns each run's (stats JSON, stdout,
    HostMailbox.poll calls, status-line recalls)."""
    poll, calls = HostMailbox.poll, []

    def counted_poll(self):
        calls.append(None)
        return poll(self)

    monkeypatch.setattr(HostMailbox, "poll", counted_poll)
    results = {}
    for trace_path in (None, os.devnull):
        calls.clear()
        sandbox = make_sandbox(str(tmp_path / f"sandbox-{trace_path is None}"))
        machine = Machine(config, binary=binary, sandbox_dir=sandbox or str(tmp_path),
                          trace_path=trace_path)
        recalls = status_recalls(machine)
        stats = machine.run()
        results["traced" if trace_path else "untraced"] = (
            stats.to_json(), bytes(machine.stdout_data), len(calls), recalls)
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
    untraced, traced = run_both(monkeypatch, tmp_path, cfg, w.build(cfg), w.make_sandbox)
    assert_equal_and_fast(untraced, traced)
    assert untraced[1] == w.expected_stdout
    if name == "memwalk":
        # the larger-than-L2 pass evicts the status line from its L2 slice,
        # and that recall is what wakes the sleeping host
        assert untraced[3] and untraced[3] == traced[3]
