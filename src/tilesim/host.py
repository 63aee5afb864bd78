"""The behavioral host agent.

Stands in for the entire host-side stack (userspace proxy, kernel, hypervisor)
of the machine it models. `boot` runs first, straight through: it allocates
the guest region, loads the static RV32 ELF through the coherent fabric and
releases the guest with a start interrupt (the kernel/hypervisor layers
survive only as trace sub-steps 3-5). Each later step is one mailbox poll,
servicing at most one syscall against the host OS, spaced poll_interval
cycles apart; the polls of one sleep are charged at once (`skip_idle_polls`).
The agent has its own tile, private cache and clock; every fabric access it
makes charges that clock with the access latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import GuestRegion, MachineConfig
from .elf import ElfImage
from .errors import LoadError, ProtocolError
from .mailbox import OFF_STATUS, STATUS_REQUESTED, HostMailbox
from .mem.cache import CacheLine
from .mem.fabric import FabricPort
from .syscalls import ExitRequest, SyscallHandler


@dataclass
class GuestImage:
    """A validated ELF: entry matches the reset vector, segments fit the region."""

    elf: ElfImage
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
        return cls(elf, stack_size)

    @property
    def heap_start(self) -> int:
        return (self.elf.max_addr + 15) & ~15


class HostAgent:
    def __init__(self, machine, tile: int):
        self.machine = machine
        self.config: MachineConfig = machine.config
        self.tile = tile
        self.port = FabricPort(machine.fabric, tile, enforce_windows=True)
        self.port.now_fn = lambda: self.time
        self.time = 0
        self.mailbox: HostMailbox | None = None
        self.handler: SyscallHandler | None = None
        self.syscalls_serviced = 0

    # -- small helpers ----------------------------------------------------------

    def _trace(self, text: str):
        if self.machine.trace:
            self.machine.trace(text)

    def _charge(self, latency: int):
        self.time += latency

    def _copy(self, addr: int, count: int, data: bytes | None = None) -> bytes:
        """Load `count` bytes at addr, or store `data`: per line, a port access and `byte_hits`."""
        fabric, out, i = self.machine.fabric, bytearray(), 0
        top = sum(fabric.window)
        while i < count:
            at = addr + i
            n = min(count - i, fabric.line_size - at % fabric.line_size, max(top - at, 1))
            value, lat = (self.port.load(at, 1) if data is None
                          else (data[i], self.port.store(at, 1, data[i])))
            out.append(value)
            if n > 1:
                more, hits = fabric.byte_hits(self.tile, at + 1, n - 1, self.time + lat,
                                              data and data[i + 1 : i + n])
                out += more
                lat += hits
            self._charge(lat)
            i += n
        return bytes(out)

    def read_guest_bytes(self, addr: int, count: int) -> bytes:
        """Coherent read of guest memory (for syscall payloads)."""
        return self._copy(addr, count)

    def write_guest_bytes(self, addr: int, data: bytes):
        self._copy(addr, len(data), data)

    # -- the spec'd operations ------------------------------------------------------

    def pico_setup(self) -> GuestRegion:
        """Allocate (register + zero-fill) the configured guest region; its
        limits were checked by MachineConfig.validate."""
        region = self.config.region
        base, size = region.base, region.size
        self.machine.fabric.register_window(base, size)
        # fresh-machine zero-fill: caches hold nothing of the region yet, so
        # writing the backing store directly is equivalent to coherent stores
        self.machine.fabric.dram[base : base + size] = b"\x00" * size
        if self.machine.fabric.shadow is not None:
            self.machine.fabric.shadow[base : base + size] = b"\x00" * size
        self.mailbox = HostMailbox(self.port, region.mailbox_addr, charge=self._charge)
        self._charge(1)
        self._trace(f"HOST cycle={self.time} step=1 setup base=0x{base:08x} size=0x{size:x}")
        return region

    def load_binary(self, image: GuestImage):
        """Write segment bytes into the region through the coherent fabric."""
        for seg in image.elf.segments:
            addr, data = seg.vaddr, seg.data
            i = 0
            while i < len(data):  # aligned words, single bytes at the ends
                width = 4 if (addr + i) % 4 == 0 and i + 4 <= len(data) else 1
                value = int.from_bytes(data[i : i + width], "little")
                self._charge(self.port.store(addr + i, width, value))
                i += width
            # the memsz tail past filesz stays zero from setup's zero-fill
        self._trace(
            f"HOST cycle={self.time} step=2 loaded {len(image.elf.segments)} segment(s)"
            f" entry=0x{image.elf.entry:08x}"
        )

    def pico_start(self):
        """Send the start interrupt and wake the guest at its delivery time; the
        syscall/hypercall/interrupt chain of the modeled stack is collapsed into
        one action logged as steps 3-5."""
        guest = self.machine.guest
        self._trace(f"HOST cycle={self.time} step=3 syscall start-guest")
        self._trace(f"HOST cycle={self.time} step=4 hypercall start-guest")
        delivery = self.machine.noc.send_interrupt(self.tile, guest.tile, "start",
                                                   when=self.time)
        guest.wake(delivery)
        self._trace(f"HOST cycle={self.time} step=5 interrupt start deliver@{delivery}")
        self._charge(1)

    def boot(self):
        """Steps 1-5 in order: set up the region, validate and load the image,
        build the syscall handler, start the guest."""
        region = self.pico_setup()
        elf = self.machine.parse_binary()  # raises LoadError with step naming
        image = GuestImage.validate(elf, region, self.config.reset_vector,
                                    self.config.stack_size)
        self.load_binary(image)
        self.handler = SyscallHandler(
            sandbox_dir=self.machine.sandbox_dir,
            read_bytes=self.read_guest_bytes,
            write_bytes=self.write_guest_bytes,
            stdout=self.machine.stdout_data.extend,
            stderr=self.machine.stderr_data.extend,
            heap_start=image.heap_start,
            heap_limit=region.mailbox_addr - image.stack_size,
            guest_top=region.top,
            log=self.machine.trace,
        )
        self.pico_start()

    # -- scheduling ---------------------------------------------------------------------

    def advance(self):
        """One mailbox poll, servicing at most one syscall, then poll_interval
        cycles until the next; an exit request finishes the run."""
        request = self.mailbox.poll()  # fabric reads charge our clock via the mailbox
        if request is not None:
            status = None
            try:
                ret, err = self.handler.handle(request.number, request.args)
            except ExitRequest as exit_req:
                ret, err, status = 0, 0, exit_req.status
            self.mailbox.complete(ret, err)
            self.syscalls_serviced += 1
            args_text = ",".join(str(a) for a in request.args)
            exit_text = "" if status is None else f" exit={status}"
            self._trace(
                f"SYS cycle={self.time} number={request.number} args=[{args_text}]"
                f" ret={ret} errno={err}{exit_text}"
            )
            if status is not None:
                self.machine.finish(status)
        self.time += self.config.poll_interval

    def status_line(self) -> CacheLine:
        """The host's cached copy of the mailbox status line. Every advance()
        ends with an access to the status word, a poll's load that found no
        request or complete()'s DONE store, so the copy is there and holds
        no request."""
        fabric, addr = self.machine.fabric, self.mailbox.base + OFF_STATUS
        line, at = fabric.l15[self.tile].lookup(addr & -fabric.line_size), addr % fabric.line_size
        if line is None or int.from_bytes(line.data[at : at + 4], "little") == STATUS_REQUESTED:
            raise ProtocolError(f"host idle with status 0x{addr:08x} uncached or requested")
        return line

    def skip_idle_polls(self, line: CacheLine, until: int):
        """Charge every poll that starts at or before `until` (at least one) as
        advance() would; the caller knows each would hit `line` and find no request."""
        period = self.config.timing.l15_hit_cycles + self.config.poll_interval
        n = (until - self.time) // period + 1
        self.machine.fabric.repeat_load_hits(self.tile, line, n)
        self.time += n * period
