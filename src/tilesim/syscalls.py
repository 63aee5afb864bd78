"""Host-side servicing of proxied guest syscalls.

Numbering follows the standard RISC-V Linux/newlib table. File-backed calls
are confined to the sandbox directory; escapes (absolute paths, ..) are
refused with EACCES rather than resolved. A guest pointer that reaches outside
guest memory fails the call with EFAULT. 64-bit host results that do not fit
the 32-bit mailbox field are truncated with a logged warning.
"""

from __future__ import annotations

import errno as host_errno
import os
from dataclasses import dataclass, field

from .errors import MemoryFault
from .rv32.insn import sext

SYS_OPENAT = 56
SYS_CLOSE = 57
SYS_LSEEK = 62
SYS_READ = 63
SYS_WRITE = 64
SYS_FSTAT = 80
SYS_EXIT = 93
SYS_BRK = 214

AT_FDCWD = 0xFFFFFF9C  # -100 as u32

# guest open flags (generic Linux values)
O_ACCMODE = 0o3
O_CREAT = 0o100
O_EXCL = 0o200
O_TRUNC = 0o1000
O_APPEND = 0o2000

MAX_PATH = 4096
MAX_IO = 1 << 20


@dataclass
class ExitRequest(Exception):
    status: int


@dataclass
class SyscallHandler:
    """Performs one decoded request against the host OS.

    `read_bytes(addr, n)` / `write_bytes(addr, data)` reach guest memory
    through the host agent's coherent port. The heap bounds implement brk;
    `guest_top`, when set, ends path copies at the top of guest memory.
    """

    sandbox_dir: str
    read_bytes: object
    write_bytes: object
    stdout: object  # callable(bytes)
    stderr: object
    heap_start: int = 0
    heap_limit: int = 0
    guest_top: int = 0  # 0: path copies are not cut
    log: object = None  # callable(str) or None
    heap_end: int = field(init=False)  # the break: heap_start until brk moves it
    fds: dict[int, int] = field(init=False, default_factory=dict)
    _next_fd: int = field(init=False, default=3)

    def __post_init__(self):
        self.heap_end = self.heap_start

    def _warn(self, text: str):
        if self.log:
            self.log(f"WARN {text}")

    def handle(self, number: int, args: list[int]) -> tuple[int, int]:
        """Returns (return_value, errno_value); raises ExitRequest for exit."""
        try:
            if number == SYS_EXIT:
                raise ExitRequest(sext(args[0], 32))
            if number == SYS_WRITE:
                return self._write(args[0], args[1], args[2])
            if number == SYS_READ:
                return self._read(args[0], args[1], args[2])
            if number == SYS_OPENAT:
                return self._openat(args[0], args[1], args[2], args[3])
            if number == SYS_CLOSE:
                return self._close(args[0])
            if number == SYS_LSEEK:
                return self._lseek(args[0], args[1], args[2])
            if number == SYS_FSTAT:
                return self._fstat(args[0], args[1])
            if number == SYS_BRK:
                return self._brk(args[0])
        except OSError as err:
            return -1, err.errno or host_errno.EIO
        except MemoryFault:
            return -1, host_errno.EFAULT
        self._warn(f"unknown syscall {number}")
        return -1, host_errno.ENOSYS

    # -- individual calls ---------------------------------------------------

    def _guest_fd(self, fd: int):
        fd = sext(fd, 32)
        if fd in (0, 1, 2):
            return fd
        host = self.fds.get(fd)
        if host is None:
            raise OSError(host_errno.EBADF, "bad guest fd")
        return host

    def _write(self, fd, buf, count):
        count = min(count, MAX_IO)
        data = self.read_bytes(buf, count)
        fd = sext(fd, 32)
        if fd == 1:
            self.stdout(data)
            return count, 0
        if fd == 2:
            self.stderr(data)
            return count, 0
        written = os.write(self._guest_fd(fd), data)
        return written, 0

    def _read(self, fd, buf, count):
        count = min(count, MAX_IO)
        fd = sext(fd, 32)
        if fd == 0:
            return 0, 0  # no interactive stdin in a deterministic run
        if fd in (1, 2):
            raise OSError(host_errno.EBADF, "read from output stream")
        host_fd = self._guest_fd(fd)
        data = os.read(host_fd, count)
        try:
            self.write_bytes(buf, data)
        except MemoryFault:  # a failed read leaves the file offset where it was
            try:
                os.lseek(host_fd, -len(data), os.SEEK_CUR)
            except OSError:
                pass  # a pipe cannot seek back
            raise
        return len(data), 0

    def _resolve(self, path: str) -> str:
        if path.startswith("/"):
            raise OSError(host_errno.EACCES, "absolute paths are outside the sandbox")
        root = os.path.realpath(self.sandbox_dir)
        target = os.path.realpath(os.path.join(root, path))
        if target != root and not target.startswith(root + os.sep):
            raise OSError(host_errno.EACCES, "path escapes the sandbox")
        return target

    def _openat(self, dirfd, pathptr, flags, mode):
        if sext(dirfd, 32) != sext(AT_FDCWD, 32):
            raise OSError(host_errno.EBADF, "only AT_FDCWD is supported")
        count = MAX_PATH
        if pathptr < self.guest_top:
            count = min(count, self.guest_top - pathptr)
        raw = self.read_bytes(pathptr, count)
        end = raw.find(b"\x00")
        if end < 0 and count < MAX_PATH:
            raise MemoryFault(pathptr + count, "path runs past the top of guest memory")
        if end < 0:
            raise OSError(host_errno.ENAMETOOLONG, "unterminated path")
        path = raw[:end].decode("utf-8", "replace")
        host_flags = flags & O_ACCMODE
        for bit, os_bit in ((O_CREAT, os.O_CREAT), (O_EXCL, os.O_EXCL),
                            (O_TRUNC, os.O_TRUNC), (O_APPEND, os.O_APPEND)):
            if flags & bit:
                host_flags |= os_bit
        host_fd = os.open(self._resolve(path), host_flags, mode & 0o777)
        guest_fd = self._next_fd
        self._next_fd += 1
        self.fds[guest_fd] = host_fd
        return guest_fd, 0

    def _close(self, fd):
        fd = sext(fd, 32)
        if fd in (0, 1, 2):
            return 0, 0  # keep the standard streams alive
        os.close(self._guest_fd(fd))
        del self.fds[fd]
        return 0, 0

    def _lseek(self, fd, offset, whence):
        result = os.lseek(self._guest_fd(fd), sext(offset, 32), whence)
        if result > 0x7FFFFFFF:
            self._warn(f"lseek result {result} truncated to 32 bits")
            result &= 0x7FFFFFFF
        return result, 0

    def _fstat(self, fd, statptr):
        fd = sext(fd, 32)
        if fd in (0, 1, 2):
            mode, size = 0o020666, 0  # character device: keeps isatty-style checks happy
        else:
            st = os.fstat(self._guest_fd(fd))
            mode = st.st_mode
            size = st.st_size
            if size > 0xFFFFFFFF:
                self._warn(f"fstat size {size} truncated to 32 bits")
                size &= 0xFFFFFFFF
        blob = (mode & 0xFFFFFFFF).to_bytes(4, "little") + size.to_bytes(4, "little")
        blob += (512).to_bytes(4, "little") + b"\x00" * 4
        self.write_bytes(statptr, blob)
        return 0, 0

    def _brk(self, addr):
        if addr == 0:
            return self.heap_end, 0
        if self.heap_start <= addr <= self.heap_limit:
            self.heap_end = addr
            return addr, 0
        return self.heap_end, 0  # Linux style: failed brk returns the old break

    def close_all(self):
        for host_fd in self.fds.values():
            try:
                os.close(host_fd)
            except OSError:
                pass
        self.fds.clear()
