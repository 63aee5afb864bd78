"""The behavioral host agent.

Stands in for the entire host-side stack (userspace proxy, kernel, hypervisor)
of the machine it models: it allocates the guest region, loads the static
RV32 ELF through the coherent fabric, releases the guest with a start
interrupt, then polls the mailbox and services syscalls against the host OS.
The kernel/hypervisor layers survive only as labeled trace sub-steps on the
start path (steps 3-5).

The agent runs on its own tile with its own private cache and is scheduled on
the same deterministic clock as the cores; every fabric access it makes
charges its local time with the access latency, and mailbox polls are spaced
poll_interval cycles apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import MAILBOX_SIZE, GuestRegion, MachineConfig
from .elf import ElfImage
from .errors import LoadError, SimError
from .mailbox import HostMailbox
from .mem.fabric import FabricPort
from .syscalls import ExitRequest, SyscallHandler


@dataclass
class GuestImage:
    """A validated ELF: entry matches the reset vector, segments fit the region."""

    elf: ElfImage
    region: GuestRegion
    stack_size: int

    @classmethod
    def validate(cls, elf: ElfImage, region: GuestRegion, reset_vector: int,
                 stack_size: int) -> "GuestImage":
        if elf.entry != reset_vector:
            raise LoadError(
                f"entry 0x{elf.entry:08x} does not match the reset vector"
                f" 0x{reset_vector:08x}"
            )
        stack_guard = region.mailbox_addr - stack_size
        for seg in elf.segments:
            if seg.vaddr < region.base or seg.vaddr + seg.memsz > region.top:
                raise LoadError(
                    f"segment 0x{seg.vaddr:08x}+0x{seg.memsz:x} outside the guest region"
                )
            if seg.vaddr + seg.memsz > region.mailbox_addr and seg.vaddr < region.top:
                raise LoadError("segment overlaps the mailbox")
            if seg.vaddr + seg.memsz > stack_guard:
                raise LoadError("segment overlaps the guest stack")
        return cls(elf, region, stack_size)

    @property
    def heap_start(self) -> int:
        return (self.elf.max_addr + 15) & ~15


class HostAgent:
    def __init__(self, machine, tile: int, guest_tile: int):
        self.machine = machine
        self.config: MachineConfig = machine.config
        self.tile = tile
        self.guest_tile = guest_tile
        self.port = FabricPort(machine.fabric, tile, enforce_windows=True)
        self.port.now_fn = lambda: self.time
        self.time = 0
        self.next_time = 0
        self.phase = "setup"
        self.region: GuestRegion | None = None
        self.image: GuestImage | None = None
        self.mailbox: HostMailbox | None = None
        self.handler: SyscallHandler | None = None
        self.syscalls_serviced = 0

    # -- small helpers ----------------------------------------------------------

    def _trace(self, text: str):
        if self.machine.trace:
            self.machine.trace(text)

    def _charge(self, latency: int):
        self.time += latency

    def _store(self, addr: int, width: int, value: int):
        self._charge(self.port.store(addr, width, value))

    def read_guest_bytes(self, addr: int, count: int) -> bytes:
        """Coherent byte-wise read of guest memory (for syscall payloads)."""
        out = bytearray()
        for i in range(count):
            value, lat = self.port.load(addr + i, 1)
            self._charge(lat)
            out.append(value)
        return bytes(out)

    def write_guest_bytes(self, addr: int, data: bytes):
        for i, b in enumerate(data):
            self._store(addr + i, 1, b)

    # -- the spec'd operations ------------------------------------------------------

    def pico_setup(self, size: int) -> GuestRegion:
        """Allocate (register + zero-fill) the shared guest region."""
        if size <= 0:
            raise SimError("step 1: guest region size must be > 0")
        base = self.config.guest_base
        if base + size > self.config.dram_size:
            raise SimError("step 1: physical map exhausted")
        if size % MAILBOX_SIZE:
            raise SimError("step 1: region size must be 64-byte aligned")
        region = GuestRegion(base, size)
        self.machine.fabric.register_window(base, size)
        # fresh-machine zero-fill: caches hold nothing of the region yet, so
        # writing the backing store directly is equivalent to coherent stores
        self.machine.fabric.dram[base : base + size] = b"\x00" * size
        if self.machine.fabric.shadow is not None:
            self.machine.fabric.shadow[base : base + size] = b"\x00" * size
        self.region = region
        self.mailbox = HostMailbox(self.port, region.mailbox_addr, charge=self._charge)
        self._charge(1)
        self._trace(f"HOST cycle={self.time} step=1 setup base=0x{base:08x} size=0x{size:x}")
        return region

    def load_binary(self, image: GuestImage, region: GuestRegion):
        """Write segment bytes into the region through the coherent fabric."""
        if self.region is None:
            raise SimError("step 2: load before setup")
        for seg in image.elf.segments:
            addr, data = seg.vaddr, seg.data
            i = 0
            while i < len(data) and (addr + i) % 4:
                self._store(addr + i, 1, data[i])
                i += 1
            while i + 4 <= len(data):
                self._store(addr + i, 4, int.from_bytes(data[i : i + 4], "little"))
                i += 4
            while i < len(data):
                self._store(addr + i, 1, data[i])
                i += 1
            # the memsz tail past filesz stays zero from setup's zero-fill
        self.image = image
        self._trace(
            f"HOST cycle={self.time} step=2 loaded {len(image.elf.segments)} segment(s)"
            f" entry=0x{image.elf.entry:08x}"
        )

    def pico_start(self, region: GuestRegion):
        """Send the start interrupt and wake the guest at its delivery time; the
        syscall/hypercall/interrupt chain of the modeled stack is collapsed into
        one action logged as steps 3-5."""
        if self.image is None:
            raise SimError("step 3: start before load")
        self._trace(f"HOST cycle={self.time} step=3 syscall start-guest")
        self._trace(f"HOST cycle={self.time} step=4 hypercall start-guest")
        delivery = self.machine.noc.send_interrupt(self.tile, self.guest_tile, "start",
                                                   when=self.time)
        self.machine.cores[self.guest_tile].wake(delivery)
        self._trace(f"HOST cycle={self.time} step=5 interrupt start deliver@{delivery}")
        self._charge(1)

    def service_step(self):
        """One mailbox poll; services at most one syscall."""
        request = self.mailbox.poll()  # fabric reads charge our clock via the mailbox
        if request is None:
            return
        args_text = ",".join(str(a) for a in request.args)
        try:
            ret, err = self.handler.handle(request.number, request.args)
        except ExitRequest as exit_req:
            self.mailbox.complete(0, 0)
            self.syscalls_serviced += 1
            self._trace(
                f"SYS cycle={self.time} number={request.number} args=[{args_text}]"
                f" ret=0 errno=0 exit={exit_req.status}"
            )
            self.phase = "done"
            self.machine.finish(exit_req.status)
            return
        self.mailbox.complete(ret, err)
        self.syscalls_serviced += 1
        self._trace(
            f"SYS cycle={self.time} number={request.number} args=[{args_text}]"
            f" ret={ret} errno={err}"
        )

    # -- scheduling ---------------------------------------------------------------------

    def advance(self):
        if self.phase == "setup":
            self.pico_setup(self.config.guest_region_size)
            self.phase = "load"
        elif self.phase == "load":
            elf = self.machine.parse_binary()  # raises LoadError with step naming
            image = GuestImage.validate(elf, self.region, self.config.reset_vector,
                                        self.config.stack_size)
            self.load_binary(image, self.region)
            self.handler = SyscallHandler(
                sandbox_dir=self.machine.sandbox_dir,
                read_bytes=self.read_guest_bytes,
                write_bytes=self.write_guest_bytes,
                stdout=self.machine.write_stdout,
                stderr=self.machine.write_stderr,
                heap_start=image.heap_start,
                heap_limit=self.region.mailbox_addr - image.stack_size,
                guest_top=self.region.top,
                log=self.machine.trace,
            )
            self.phase = "start"
        elif self.phase == "start":
            self.pico_start(self.region)
            self.phase = "service"
        elif self.phase == "service":
            self.service_step()
            self.time += self.config.poll_interval
        else:
            raise SimError("host agent advanced after completion")
        self.next_time = self.time if self.phase != "done" else None
