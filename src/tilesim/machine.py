"""Machine assembly and the deterministic event loop.

Agents (guest cores and the host agent) carry their own cycle clocks, and the
clocks are all the scheduler orders: it always advances the agent with the
smallest local time, breaking ties by tile id. A guest held in reset has no
time until the host's start interrupt wakes it at the delivery time. Each
agent step is one atomic unit (one guest instruction, one host action), so a
run is a pure function of (config, seed, binary).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .config import GUEST_RV32, MachineConfig
from .elf import parse_elf
from .errors import LoadError, SimError
from .host import HostAgent
from .mailbox import OFF_STATUS, STATUS_EMPTY, STATUS_REQUESTED
from .mem.fabric import FabricPort, MemoryFabric
from .noc import Noc
from .rv32 import RunState, Rv32Core

STATS_SCHEMA_VERSION = 1


@dataclass
class RunStats:
    counters: dict

    def to_json(self) -> str:
        return json.dumps(self.counters, sort_keys=True, indent=2) + "\n"

    def __getitem__(self, key):
        return self.counters[key]

    def get(self, key, default=None):
        return self.counters.get(key, default)


class CoreAgent:
    def __init__(self, machine: "Machine", tile: int):
        self.machine = machine
        self.tile = tile
        cfg = machine.config
        self.port = FabricPort(machine.fabric, tile)
        self.port.now_fn = lambda: self.time
        self.core = Rv32Core(port=self.port, reset_vector=cfg.reset_vector, timing=cfg.timing)
        self.time = 0
        self.next_time: int | None = None  # held in reset: nothing scheduled

    def wake(self, at: int):
        self.core.deliver_start_interrupt()
        if self.core.run_state is RunState.RUNNING and self.next_time is None:
            self.time = max(self.time, at)
            self.next_time = self.time

    def advance(self):
        result = self.core.step()
        self.time += result.cycles
        if self.core.run_state is not RunState.RUNNING:  # halted by a trap
            self.next_time = None
            self.machine.trap = self.core.halt_reason
            self.machine.finished = True
        else:
            self.next_time = self.time


class Machine:
    def __init__(self, config: MachineConfig, binary: bytes | None = None,
                 sandbox_dir: str | None = None, trace_path: str | None = None):
        config.validate()
        self.config = config
        self.binary = binary
        self.sandbox_dir = sandbox_dir or config.sandbox_dir
        self._trace_file = open(trace_path, "w", encoding="utf-8") if trace_path else None
        self.trace = self._emit_trace if self._trace_file else None

        self.noc = Noc(config.mesh, len(config.tiles), trace=self.trace)
        self.fabric = MemoryFabric(config, self.noc, trace=self.trace)

        self.cores: dict[int, CoreAgent] = {}
        for tile, kind in enumerate(config.tiles):
            if kind == GUEST_RV32:
                self.cores[tile] = CoreAgent(self, tile)
        self.host = HostAgent(self, config.host_tile(), config.guest_tile())

        self.finished = False
        self.exit_status: int | None = None
        self.trap: str | None = None
        self.tohost_value: int | None = None
        self.stdout_data = bytearray()
        self.stderr_data = bytearray()

        self.syscall_count = 0
        self.syscall_roundtrip_cycles = 0
        self._syscall_started: int | None = None
        self.fabric.watch(config.region.mailbox_addr + OFF_STATUS, self._status_watch)

        order = [(config.host_tile(), self.host)]
        order += [(tile, agent) for tile, agent in sorted(self.cores.items())]
        self._agent_order = [agent for _, agent in sorted(order, key=lambda p: p[0])]

    # -- plumbing for the agents ------------------------------------------------

    def _emit_trace(self, line: str):
        self._trace_file.write(line + "\n")

    def parse_binary(self):
        if self.binary is None:
            raise LoadError("step 2: no binary supplied")
        return parse_elf(self.binary)

    def write_stdout(self, data: bytes):
        self.stdout_data += data

    def write_stderr(self, data: bytes):
        self.stderr_data += data

    def finish(self, status: int):
        self.finished = True
        self.exit_status = status

    def _status_watch(self, _addr, data, tx):
        value = int.from_bytes(data, "little")
        if value == STATUS_REQUESTED:
            self._syscall_started = tx.issue_cycle
            self.syscall_count += 1
        elif value == STATUS_EMPTY and self._syscall_started is not None:
            self.syscall_roundtrip_cycles += tx.issue_cycle - self._syscall_started
            self._syscall_started = None

    def watch_tohost(self, addr: int):
        host_tile = self.config.host_tile()

        def cb(_addr, data, tx):
            if tx.origin == host_tile:
                return  # the loader writing the image, not the guest reporting
            self.tohost_value = int.from_bytes(data, "little")
            self.finished = True

        self.fabric.watch(addr, cb)

    # -- the event loop ---------------------------------------------------------------

    def run(self) -> RunStats:
        limit = self.config.sim_cycle_limit
        agents = self._agent_order
        try:
            while not self.finished:
                chosen = None  # the host runs until the run finishes
                for agent in agents:  # list order is tile order: the tie-break
                    t = agent.next_time
                    if t is not None and (chosen is None or t < chosen.next_time):
                        chosen = agent
                if chosen.next_time > limit:
                    raise SimError(f"cycle limit {limit} exceeded (wedged guest?)")
                chosen.advance()
        finally:
            if self.host.handler:
                self.host.handler.close_all()
            if self._trace_file:
                self._trace_file.close()
                self._trace_file = None
        return self.stats()

    # -- statistics ----------------------------------------------------------------------

    def stats(self) -> RunStats:
        counters: dict = {"schema_version": STATS_SCHEMA_VERSION}
        times = [self.host.time] + [a.time for a in self.cores.values()]
        counters["total_cycles"] = max(times)
        counters["exit_status"] = self.exit_status
        counters["guest_trap"] = self.trap
        counters["tohost"] = self.tohost_value
        counters["guest_instructions"] = sum(a.core.instret for a in self.cores.values())
        counters["guest_cycles"] = max((a.core.cycle_counter for a in self.cores.values()),
                                       default=0)
        counters["syscalls.count"] = self.syscall_count
        counters["syscalls.roundtrip_cycles"] = self.syscall_roundtrip_cycles
        counters["host.syscalls_serviced"] = self.host.syscalls_serviced
        counters.update(self.fabric.counts())
        counters.update(self.noc.counts())
        return RunStats(counters)

