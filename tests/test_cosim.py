"""Lockstep co-simulation: the guest core against the flat-memory stepper of
tests/cosim.py, one instruction at a time, over the corpus, the bundled
rv32ui suite and the benchmark's memwalk and sysio guests.

The machine runs as usual. Wrappers on the instance (as test_golden.py puts
them) mirror every store of the host's port into the stepper's memory as it
happens (the loader, mailbox results, syscall payloads, whose bytes after the
first of each line are stored by `byte_hits`) and, after each guest step,
step the stepper once and compare pc, the 32 registers and instret. A step
the core traps on must be one the stepper traps on too.
"""

import importlib
from pathlib import Path

import pytest

import cosim
from tilesim import corpus
from tilesim.config import MachineConfig
from tilesim.elf import parse_elf
from tilesim.harness import _suite_config, bundled_suite_elves
from tilesim.machine import Machine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def lockstep(machine) -> cosim.FlatCpu:
    """Wrap the machine's guest core, the host's port and the fabric; returns
    the stepper."""
    core, fabric, port = machine.guest.core, machine.fabric, machine.host.port
    ref = cosim.FlatCpu(len(fabric.dram), machine.config.reset_vector)
    host = machine.config.host_tile()
    store, byte_hits, step = port.store, fabric.byte_hits, core.step

    def mirrored_store(addr, width, value):
        result = store(addr, width, value)
        ref.mem[addr : addr + width] = value.to_bytes(width, "little")
        return result

    def mirrored_byte_hits(tile, addr, n, now, data=None):
        result = byte_hits(tile, addr, n, now, data)
        if tile == host and data is not None:
            ref.mem[addr : addr + n] = data
        return result

    def lockstep_step():
        pc = core.pc
        result = step()
        try:
            ref.step(lambda: core.cycle_counter)  # the counter after this step
        except cosim.Trap as trap:
            assert result.trap is not None, f"core ran what the stepper traps on: {trap}"
        else:
            assert result.trap is None, f"core trapped where the stepper ran: {result.trap}"
        assert core.pc == ref.pc, f"pc after 0x{pc:08x}"
        assert core.regs == ref.regs, f"registers after 0x{pc:08x}"
        assert core.instret == ref.instret
        return result

    port.store = mirrored_store
    fabric.byte_hits = mirrored_byte_hits
    core.step = lockstep_step
    return ref


@pytest.mark.parametrize("name", ["hanoi", "binsearch", "quicksort"])
def test_corpus_runs_in_lockstep(name):
    config = MachineConfig(seed=0)
    config.validate()
    machine = Machine(config, binary=corpus.bench_elf(name, config))
    ref = lockstep(machine)
    machine.run()
    assert machine.trap is None and machine.exit_status == 0
    assert ref.instret == machine.stats()["guest_instructions"] > 1000


@pytest.mark.parametrize("name", ["memwalk", "sysio"])
def test_perfbench_guest_runs_in_lockstep(name, tmp_path, monkeypatch):
    """The benchmark's own seed-0 build, sandbox and output check."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    w = importlib.import_module("workloads").make(name, 0)
    config = w.config()
    sandbox = w.make_sandbox(str(tmp_path / "sandbox"))
    machine = Machine(config, binary=w.build(config), sandbox_dir=sandbox or str(tmp_path))
    ref = lockstep(machine)
    machine.run()
    assert w.check(machine, sandbox) == []
    assert ref.instret == machine.stats()["guest_instructions"] > 1000


def test_rv32ui_suite_runs_in_lockstep():
    config = _suite_config(MachineConfig())
    traps = 0
    for name, blob in bundled_suite_elves(config).items():
        machine = Machine(config, binary=blob)
        machine.watch_tohost(parse_elf(blob).symbols["tohost"])
        ref = lockstep(machine)
        machine.run()
        if name.endswith("-trap"):
            assert machine.trap is not None, name
            traps += 1
        else:
            assert machine.trap is None and machine.tohost_value == 1, name
        assert ref.instret == machine.stats()["guest_instructions"], name
    assert traps > 0
