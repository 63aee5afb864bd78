"""Machine assembly and the deterministic event loop.

Two agents carry cycle clocks: the host agent and one guest core, on the
first guest tile; later guest tiles are fabric tiles that run nothing. A run
boots the host first (setup, load, start) in one call. That is exact: the
guest is held in reset until the start interrupt wakes it at the delivery
time. The loop then merges the two clocks, always advancing the smaller one
and breaking ties by tile id. A host step is one mailbox poll. A guest step
runs a chain of blocks (Rv32Core.step) whose budget, min(host.time + tie,
limit + 1) - guest.time, lets none of its instructions start at or after the
host's next step or past the cycle limit. So instructions and polls
interleave as single steps would, and a run is a pure function of (config,
seed, binary); a traced guest runs one instruction per step. The guest port's
clock is the running instruction's start: the wake time plus the core's cycle
counter. With no trace open, the host sleeps after each poll: the guest runs
alone, with the budget limit + 1 - guest.time, until a guest store or an L2
recall takes the host's cached status line, the run ends or the cycle limit
trips. A chain ends after every store and L1.5 miss, so the loop sees each of
these right after the instruction that caused it. Then the polls due before
the start of the last instruction it ran, none past the limit, are charged in
one sum. That is exact: each would hit the same line, find no request and
touch only the host's counters and LRU order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .config import MachineConfig
from .elf import parse_elf
from .errors import LoadError, SimError
from .host import HostAgent
from .mailbox import OFF_STATUS, STATUS_EMPTY, STATUS_REQUESTED
from .mem.cache import INVALID
from .mem.fabric import FabricPort, MemoryFabric
from .noc import Noc
from .rv32.core import HELD_IN_RESET, RUNNING, Rv32Core

STATS_SCHEMA_VERSION = 1


@dataclass
class RunStats:
    counters: dict

    def to_json(self) -> str:
        return json.dumps(self.counters, sort_keys=True, indent=2) + "\n"

    def __getitem__(self, key):
        return self.counters[key]


class CoreAgent:
    def __init__(self, machine: "Machine", tile: int):
        self.machine = machine
        self.tile = tile
        cfg = machine.config
        self.port = FabricPort(machine.fabric, tile)
        self.core = Rv32Core(port=self.port, reset_vector=cfg.guest_base, timing=cfg.timing)
        # the running instruction's start
        self.port.now_fn = lambda: self.woke + self.core.cycle_counter
        self.time = self.woke = 0

    def wake(self, at: int):
        if self.core.run_state is HELD_IN_RESET:
            self.time = self.woke = at  # the clock starts when the core leaves reset
        self.core.deliver_start_interrupt()

    def advance(self, budget: int | None = None) -> int:
        """One step of the core (see Rv32Core.step); returns the cycle its
        last instruction started at."""
        result = self.core.step(budget)
        start = self.time + result.last_start
        self.time += result.cycles
        if self.core.run_state is not RUNNING:  # halted by a trap
            self.machine.trap = self.core.halt_reason
            self.machine.finished = True
        return start


class Machine:
    def __init__(self, config: MachineConfig, binary: bytes | None = None,
                 sandbox_dir: str | None = None, trace_path: str | None = None):
        config.validate()
        self.config = config
        self.binary = binary
        self.sandbox_dir = sandbox_dir or "."
        self._trace_file = open(trace_path, "w", encoding="utf-8") if trace_path else None
        self.trace = self._emit_trace if self._trace_file else None

        self.noc = Noc(config.mesh, len(config.tiles), trace=self.trace)
        self.fabric = MemoryFabric(config, self.noc, trace=self.trace)

        self.guest = CoreAgent(self, config.guest_tile())
        self.host = HostAgent(self, config.host_tile())

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

    # -- plumbing for the agents ------------------------------------------------

    def _emit_trace(self, line: str):
        self._trace_file.write(line + "\n")

    def parse_binary(self):
        if self.binary is None:
            raise LoadError("step 2: no binary supplied")
        return parse_elf(self.binary)

    def finish(self, status: int):
        self.finished = True
        self.exit_status = status

    def _status_watch(self, _addr, data, _origin, now):
        value = int.from_bytes(data, "little")
        if value == STATUS_REQUESTED:
            self._syscall_started = now
            self.syscall_count += 1
        elif value == STATUS_EMPTY and self._syscall_started is not None:
            self.syscall_roundtrip_cycles += now - self._syscall_started
            self._syscall_started = None

    def watch_tohost(self, addr: int):
        host_tile = self.config.host_tile()

        def cb(_addr, data, origin, _now):
            if origin == host_tile:
                return  # the loader writing the image, not the guest reporting
            self.tohost_value = int.from_bytes(data, "little")
            self.finished = True

        self.fabric.watch(addr, cb)

    # -- the event loop ---------------------------------------------------------------

    def run(self) -> RunStats:
        limit = self.config.sim_cycle_limit
        host, guest = self.host, self.guest
        tie = int(host.tile > guest.tile)  # a poll at t goes first iff (t, host) < (g, guest)
        try:
            host.boot()
            while not self.finished:
                # the smaller clock goes next; the lower tile wins a tie
                agent = guest if guest.time < host.time + tie else host
                if agent.time > limit:
                    raise SimError(f"cycle limit {limit} exceeded (wedged guest?)")
                if agent is guest:  # its block stops before the host's next step and the limit
                    guest.advance(min(host.time + tie, limit + 1) - guest.time)
                    continue
                host.advance()
                if self.trace is None and not self.finished:
                    # the host sleeps while its polls would hit its cached
                    # status line and find no request, then pays for them
                    line = host.status_line()
                    while (g := guest.time) <= limit:
                        g = guest.advance(limit + 1 - g)  # its last instruction's start
                        if self.finished or line.state is INVALID:
                            break  # the run ended, or the guest took the host's copy
                    until = min(g - tie, limit)  # a poll past the limit trips it instead
                    if host.time <= until:
                        host.skip_idle_polls(line, until=until)
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
        counters["total_cycles"] = max(self.host.time, self.guest.time)
        counters["exit_status"] = self.exit_status
        counters["guest_trap"] = self.trap
        counters["tohost"] = self.tohost_value
        counters["guest_instructions"] = self.guest.core.instret
        counters["guest_cycles"] = self.guest.core.cycle_counter
        counters["syscalls.count"] = self.syscall_count
        counters["syscalls.roundtrip_cycles"] = self.syscall_roundtrip_cycles
        counters["host.syscalls_serviced"] = self.host.syscalls_serviced
        counters.update(self.fabric.counts())
        counters.update(self.noc.counts())
        return RunStats(counters)

