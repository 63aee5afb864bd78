"""The shared-memory syscall mailbox ABI (version 1, frozen in docs/abi.md).

One 64-byte, 64-byte-aligned block. All fields little-endian as stored:

    +0   status        0 EMPTY / 1 REQUESTED / 2 DONE
    +4   syscall_number
    +8   args[6]       six 32-bit words
    +32  return_value  signed 32-bit
    +36  errno_value
    +40  reserved      24 bytes, must stay zero

Request discipline (the guest stub sequence, mirrored by corpus/runtime.s):
write args, write number, fence, write status=REQUESTED, spin-load status
until DONE, read return_value/errno, write status=EMPTY. Status is written
last when requesting and first (and only) when releasing, so over a
sequentially consistent fabric no side ever observes a half-written record.

The host side never touches the mailbox except through its port, which
composes every field little-endian, as stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import MAILBOX_SIZE
from .errors import SimError
from .mem.fabric import FabricPort

OFF_STATUS = 0
OFF_NUMBER = 4
OFF_ARGS = 8
NUM_ARGS = 6
OFF_RETVAL = 32
OFF_ERRNO = 36
OFF_RESERVED = 40

STATUS_EMPTY = 0
STATUS_REQUESTED = 1
STATUS_DONE = 2


@dataclass
class SyscallRequest:
    number: int
    args: list[int]


class HostMailbox:
    """Host-side view. `charge` (if given) receives the latency of every
    fabric access made."""

    def __init__(self, port: FabricPort, base: int, charge=None):
        if base % MAILBOX_SIZE:
            raise SimError(f"mailbox base 0x{base:x} is not 64-byte aligned")
        self.port = port
        self.base = base
        self.charge = charge or (lambda _lat: None)

    def _read(self, offset: int) -> int:
        value, lat = self.port.load(self.base + offset, 4)
        self.charge(lat)
        return value

    def _write(self, offset: int, value: int):
        self.charge(self.port.store(self.base + offset, 4, value & 0xFFFFFFFF))

    def poll(self) -> SyscallRequest | None:
        """Decode a pending request; never mutates the mailbox."""
        if self._read(OFF_STATUS) != STATUS_REQUESTED:
            return None
        number = self._read(OFF_NUMBER)
        args = [self._read(OFF_ARGS + 4 * i) for i in range(NUM_ARGS)]
        return SyscallRequest(number, args)

    def complete(self, return_value: int, errno_value: int):
        """Publish the result; status (DONE) is written last."""
        if self._read(OFF_STATUS) != STATUS_REQUESTED:
            raise SimError("host_complete without a pending request (simulator bug)")
        self._write(OFF_RETVAL, return_value)
        self._write(OFF_ERRNO, errno_value)
        self._write(OFF_STATUS, STATUS_DONE)
