"""Runs that several tests read, made once per session.

`RunTable` (conftest.py's `runs` fixture) maps (program, seed, traced) to a
`Run`, made when a test first asks for it. A program is a corpus benchmark,
a perfbench guest (`memwalk`, `sysio`), `hello`, or `hello@<layout>` for one
of `LAYOUTS`. Each runs under `MachineConfig(seed=seed)` (or its layout's
config at that seed) and must not trap; a traced one writes a trace file.
`run` makes one counted, invariant-checked run of any config and binary.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
from pathlib import Path

import pytest

from tilesim import corpus
from tilesim.config import GUEST_RV32, HOST_AGENT, MachineConfig, MeshConfig
from tilesim.host import HostAgent
from tilesim.mailbox import OFF_STATUS, HostMailbox
from tilesim.machine import Machine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

LAYOUTS = {
    "guest-host-guest": MachineConfig(tiles=[GUEST_RV32, HOST_AGENT, GUEST_RV32],
                                      mesh=MeshConfig(width=2, height=2)),
    "guests-then-host": MachineConfig(tiles=[GUEST_RV32] * 3 + [HOST_AGENT],
                                      mesh=MeshConfig(width=2, height=2, hop_cycles=3)),
}


def perfbench(module: str):
    """perfbench/<module>.py, imported with perfbench/ on sys.path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module(module)


@dataclasses.dataclass(frozen=True)
class Run:
    stats: str  # the stats JSON
    stdout: bytes
    polls: int  # HostMailbox.poll calls
    recalls: tuple  # the recalls that took the host's copy of the status line
    end: tuple  # (tohost value, trap)
    trace: Path | None  # None when untraced

    @property
    def counters(self) -> dict:
        return json.loads(self.stats)


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


def run(config, binary, sandbox_dir, trace_path=None, tohost=None) -> Run:
    """Run once, counting host polls and idle-poll charges, and sweep the
    coherence invariants at the end."""
    with pytest.MonkeyPatch.context() as mp:
        polls = count_calls(mp, HostMailbox, "poll")
        skips = count_calls(mp, HostAgent, "skip_idle_polls")
        machine = Machine(config, binary=binary, sandbox_dir=sandbox_dir, trace_path=trace_path)
        if tohost is not None:
            machine.watch_tohost(tohost)
        recalls = status_recalls(machine)
        stats = machine.run()
    machine.fabric.check_global_invariants()
    # one charge per sleep, and a sleep follows a poll; traced runs never sleep
    assert len(skips) <= (0 if trace_path else len(polls))
    return Run(stats.to_json(), bytes(machine.stdout_data), len(polls), tuple(recalls),
               (machine.tohost_value, machine.trap), trace_path and Path(trace_path))


def run_both(config, binary, sandbox_dir, tohost=None) -> tuple[Run, Run]:
    """Run untraced, then traced into the null device: the pair that the
    idle-poll tests compare."""
    return (run(config, binary, sandbox_dir, tohost=tohost),
            run(config, binary, sandbox_dir, os.devnull, tohost))


class RunTable:
    """(program, seed, traced) -> Run, each made the first time it is asked for."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.runs = {}

    def __call__(self, program: str, seed: int = 0, traced: bool = False) -> Run:
        key = (program, seed, traced)
        if key not in self.runs:
            self.runs[key] = self._make(*key)
        return self.runs[key]

    def _make(self, program, seed, traced) -> Run:
        sandbox = str(self.tmp)
        if program in ("memwalk", "sysio"):
            w = perfbench("workloads").make(program, seed)
            config = w.config()
            binary = w.build(config)
            sandbox = w.make_sandbox(str(self.tmp / f"{program}-{seed}-{traced}")) or sandbox
        else:
            name, _, layout = program.partition("@")
            config = dataclasses.replace(LAYOUTS[layout] if layout else MachineConfig(), seed=seed)
            binary = (corpus.hello_elf(config) if name == "hello"
                      else corpus.bench_elf(name, config))
        trace = str(self.tmp / f"{program}-{seed}.trace") if traced else None
        done = run(config, binary, sandbox, trace)
        assert done.end[1] is None, f"{program} trapped: {done.end[1]}"
        return done
