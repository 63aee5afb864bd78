"""Host agent: region setup, ELF loading, start ordering, syscall servicing,
and sandbox confinement."""

import os

import pytest

from tilesim import corpus
from tilesim.asm import assemble
from tilesim.config import CacheGeometry, MachineConfig
from tilesim.elf import program_to_elf
from tilesim.errors import ConfigError, LoadError, MemoryFault, ProtocolError
from tilesim.host import GuestImage, GuestRegion
from tilesim.mailbox import OFF_STATUS, STATUS_REQUESTED
from tilesim.machine import Machine
from tilesim.mem.cache import LineState
from tilesim import elf as elfmod
from tilesim.syscalls import ExitRequest, SyscallHandler


def small_config(**kw):
    cfg = MachineConfig(guest_region_size=256 * 1024, dram_size=2 * 1024 * 1024,
                        stack_size=16 * 1024, **kw)
    cfg.validate()
    return cfg


def make_machine(source: str | None = None, config=None, **machine_kw):
    cfg = config or small_config()
    blob = None
    if source is not None:
        program = assemble([corpus.read_source("runtime.s"), source],
                           base=cfg.guest_base, defines=corpus.standard_defines(cfg))
        blob = program_to_elf(program)
    return Machine(cfg, binary=blob, **machine_kw)


# -- pico_setup -----------------------------------------------------------------


def test_setup_returns_region_at_configured_base():
    m = make_machine()
    region = m.host.pico_setup()
    assert region.base == 0x0001_0000
    assert region.mailbox_addr == region.top - 64
    assert m.fabric.in_window(region.base, 4)
    assert m.fabric.in_window(region.top - 4, 4)
    assert not m.fabric.in_window(region.top, 4)


def test_config_rejects_zero_region_size():
    with pytest.raises(ConfigError, match="guest_region_size must be >= 4096"):
        MachineConfig(guest_region_size=0).validate()


def test_config_rejects_region_past_dram():
    cfg = MachineConfig()
    MachineConfig(dram_size=cfg.guest_base + cfg.guest_region_size).validate()  # ends at the top
    with pytest.raises(ConfigError, match="guest region exceeds the physical map"):
        MachineConfig(dram_size=cfg.guest_base + cfg.guest_region_size - 64).validate()


def test_setup_idempotent_reuse():
    m = make_machine()
    r1 = m.host.pico_setup()
    m.fabric.dram[r1.base] = 0xAB
    r2 = m.host.pico_setup()
    assert (r2.base, r2.size) == (r1.base, r1.size)
    assert m.fabric.dram[r1.base] == 0  # re-setup zero-fills


# -- load_binary ------------------------------------------------------------------


def _blob(source: str, cfg, base=None):
    program = assemble(source, base=base if base is not None else cfg.guest_base)
    return program_to_elf(program)


def test_load_rejects_wrong_entry():
    cfg = small_config()
    m = Machine(cfg, binary=_blob("nop", cfg, base=cfg.guest_base + 0x100))
    region = m.host.pico_setup()
    with pytest.raises(LoadError, match="reset vector"):
        GuestImage.validate(m.parse_binary(), region, cfg.reset_vector, cfg.stack_size)


def test_load_rejects_segment_outside_region():
    cfg = small_config()
    image = elfmod.ElfImage(
        entry=cfg.reset_vector,
        segments=[elfmod.Segment(cfg.guest_base - 0x1000, b"\x13\x00\x00\x00", 4)],
        symbols={},
    )
    region = GuestRegion(cfg.guest_base, cfg.guest_region_size)
    with pytest.raises(LoadError, match="outside the guest region"):
        GuestImage.validate(image, region, cfg.reset_vector, cfg.stack_size)


def test_load_rejects_mailbox_overlap():
    cfg = small_config()
    mailbox_addr = cfg.guest_base + cfg.guest_region_size - 64
    image = elfmod.ElfImage(
        entry=cfg.reset_vector,
        segments=[
            elfmod.Segment(cfg.guest_base, b"\x13\x00\x00\x00", 4),
            elfmod.Segment(mailbox_addr, b"\x00" * 8, 8),
        ],
        symbols={},
    )
    region = GuestRegion(cfg.guest_base, cfg.guest_region_size)
    with pytest.raises(LoadError, match="mailbox|stack"):
        GuestImage.validate(image, region, cfg.reset_vector, cfg.stack_size)


def test_loader_roundtrip_through_fabric():
    """Bytes written by the (big-endian) loader read back identically for the
    little-endian guest: the cross-endian path is transparent."""
    cfg = small_config()
    payload = bytes(range(1, 90))  # odd length: exercises byte head/tail paths
    program = assemble("_start: nop", base=cfg.guest_base)
    blob = program_to_elf(program)
    m = Machine(cfg, binary=blob)
    region = m.host.pico_setup()
    image = GuestImage.validate(m.parse_binary(), region, cfg.reset_vector, cfg.stack_size)
    m.host.load_binary(image)
    # hand-load an extra blob via the host helpers
    addr = cfg.guest_base + 0x4000
    m.host.write_guest_bytes(addr, payload)
    assert m.host.read_guest_bytes(addr, len(payload)) == payload
    guest_port = m.guest.port
    got = bytes(guest_port.load(addr + i, 1)[0] for i in range(len(payload)))
    assert got == payload


def test_start_trace_has_three_labeled_substeps(tmp_path):
    trace_path = tmp_path / "trace.txt"
    m = make_machine("main: li a0, 0\n ret", trace_path=str(trace_path))
    m.run()
    text = trace_path.read_text()
    assert "step=3 syscall" in text
    assert "step=4 hypercall" in text
    assert "step=5 interrupt" in text


def test_guest_running_after_start():
    m = make_machine("main: li a0, 0\n ret")
    stats = m.run()
    assert stats["exit_status"] == 0
    core = m.guest.core
    assert core.instret > 0


def test_status_line_is_cached_after_a_poll_and_never_requested():
    m = make_machine("main: li a0, 0\n ret")
    host, status = m.host, m.config.region.mailbox_addr + OFF_STATUS
    host.boot()
    with pytest.raises(ProtocolError):
        host.status_line()  # the loader never touched the mailbox
    host.advance()
    assert host.status_line().state is not LineState.INVALID
    m.guest.port.store(status, 4, STATUS_REQUESTED)
    host.port.load(status, 4)
    with pytest.raises(ProtocolError):
        host.status_line()  # a poll would find this request


# -- syscall copies --------------------------------------------------------------------


def bytewise_read(host, addr: int, count: int) -> bytes:
    """The reference copy: one port load per byte, each charged as it goes."""
    out = bytearray()
    for i in range(count):
        value, lat = host.port.load(addr + i, 1)
        host.time += lat
        out.append(value)
    return bytes(out)


def bytewise_write(host, addr: int, data: bytes):
    for i, b in enumerate(data):
        host.time += host.port.store(addr + i, 1, b)


def copy_across_lines(m, read, write):
    base = m.config.guest_base
    write(base + 0x1005, bytes(range(1, 41)))  # cold lines: each first byte misses
    return read(base + 0x1003, 44)


def copy_over_guest_modified_lines(m, read, write):
    base = m.config.guest_base
    m.guest.port.store(base + 0x2000, 4, 0xA1B2C3D4)
    m.guest.port.store(base + 0x3010, 4, 0x01020304)
    got = read(base + 0x2000, 20)  # the first byte recalls the line with a Downgrade
    write(base + 0x300E, b"\xee" * 20)  # and with an Invalidate
    return got + read(base + 0x300C, 24)


def store_run_over_watches(m, read, write):
    base, seen = m.config.guest_base, []
    for addr in (base + 0x4004, base + 0x4006, base + 0x4011):
        m.fabric.watch(addr, lambda *args: seen.append(args))
    write(base + 0x4004, bytes(range(0x30, 0x44)))  # a run's first byte, then two inside
    return seen


def read_past_window_top(m, read, write):
    top = m.config.region.top
    assert top % m.config.cache.line_size_bytes  # the window ends inside a line
    with pytest.raises(MemoryFault):
        read(top - 100, 200)


@pytest.mark.parametrize("scenario, line_size", [
    (copy_across_lines, 16), (copy_over_guest_modified_lines, 16),
    (store_run_over_watches, 16), (read_past_window_top, 128)],
    ids=lambda v: getattr(v, "__name__", f"line{v}"))
def test_syscall_copy_equals_a_bytewise_copy(scenario, line_size):
    """A copy that charges each line's later bytes in one call leaves the
    bytes, the host's clock, every counter, every set's lines in LRU order,
    the watch callbacks and the trace exactly as one port access per byte."""
    outcomes = []
    for copy in ("runs", "bytewise"):
        cfg = MachineConfig(cache=CacheGeometry(line_size_bytes=line_size),
                            guest_region_size=(256 << 10) + 64, dram_size=2 << 20,
                            stack_size=16 << 10)
        cfg.validate()
        m = Machine(cfg)
        m.host.pico_setup()
        lines = []
        m.fabric.trace = m.noc.trace = lines.append
        host = m.host
        if copy == "runs":
            result = scenario(m, host.read_guest_bytes, host.write_guest_bytes)
        else:
            result = scenario(m, lambda a, n: bytewise_read(host, a, n),
                              lambda a, d: bytewise_write(host, a, d))
        sets = [[(a, ln.state, bytes(ln.data), ln.holders) for a, ln in s.items()]
                for cache in m.fabric.l15 + m.fabric.l2 for s in cache.sets]
        outcomes.append((result, host.time, m.fabric.counts(), sets, lines,
                         bytes(m.fabric.shadow), bytes(m.fabric.dram)))
    runs, bytewise = outcomes
    assert runs[4] == bytewise[4]  # the trace first: it names the first access that differs
    assert runs == bytewise
    assert len(runs[4]) > 20


# -- syscall servicing ---------------------------------------------------------------


def run_guest(source: str, sandbox: str, config=None):
    m = make_machine(source, config=config, sandbox_dir=sandbox)
    stats = m.run()
    return m, stats


def test_write_appears_on_stdout(tmp_path):
    m, stats = run_guest(
        'main: addi sp, sp, -16\n sw ra, 12(sp)\n la a0, msg\n jal ra, print_str\n'
        ' lw ra, 12(sp)\n addi sp, sp, 16\n li a0, 0\n ret\n msg: .asciz "hi there\\n"',
        str(tmp_path),
    )
    assert bytes(m.stdout_data) == b"hi there\n"
    assert stats["exit_status"] == 0


def test_exit_status_propagates(tmp_path):
    m, stats = run_guest("main: li a0, 42\n ret", str(tmp_path))
    assert stats["exit_status"] == 42


def test_unknown_syscall_returns_enosys(tmp_path):
    src = """
main:
    addi sp, sp, -16
    sw   ra, 12(sp)
    li   a0, 9999
    jal  ra, __syscall
    # a0 = -1, a1 = ENOSYS(38): return a1 - 37 => 1, and a0+2 => 1
    addi t0, a1, -37
    addi t1, a0, 2
    add  a0, t0, t1
    lw   ra, 12(sp)
    addi sp, sp, 16
    ret
"""
    m, stats = run_guest(src, "/tmp")
    assert stats["exit_status"] == 2  # 1 + 1: errno was 38 and ret was -1


def test_openat_read_close_in_sandbox(tmp_path):
    (tmp_path / "data.txt").write_bytes(b"ABCDEFGH")
    src = """
main:
    addi sp, sp, -32
    sw   ra, 28(sp)
    # openat(AT_FDCWD, "data.txt", O_RDONLY, 0)
    li   a0, 56
    li   a1, -100
    la   a2, path
    li   a3, 0
    li   a4, 0
    jal  ra, __syscall
    mv   s0, a0                  # fd
    # read(fd, buf, 8)
    li   a0, 63
    mv   a1, s0
    la   a2, buf
    li   a3, 8
    jal  ra, __syscall
    mv   s1, a0                  # bytes read
    # write(1, buf, s1)
    li   a0, 64
    li   a1, 1
    la   a2, buf
    mv   a3, s1
    jal  ra, __syscall
    # close(fd)
    li   a0, 57
    mv   a1, s0
    jal  ra, __syscall
    mv   a0, s1
    lw   ra, 28(sp)
    addi sp, sp, 32
    ret
path:
    .asciz "data.txt"
    .balign 4
buf:
    .space 16
"""
    m, stats = run_guest(src, str(tmp_path))
    assert bytes(m.stdout_data) == b"ABCDEFGH"
    assert stats["exit_status"] == 8


def test_read_missing_file_propagates_enoent(tmp_path):
    src = """
main:
    addi sp, sp, -16
    sw   ra, 12(sp)
    li   a0, 56
    li   a1, -100
    la   a2, path
    li   a3, 0
    li   a4, 0
    jal  ra, __syscall
    # expect a0 == -1, a1 == ENOENT (2)
    mv   a0, a1
    lw   ra, 12(sp)
    addi sp, sp, 16
    ret
path:
    .asciz "no-such-file"
"""
    m, stats = run_guest(src, str(tmp_path))
    assert stats["exit_status"] == 2  # ENOENT


# handler-level tests (no guest program needed)


class FakeMem:
    def __init__(self):
        self.data = bytearray(1 << 16)

    def read(self, addr, n):
        return bytes(self.data[addr : addr + n])

    def write(self, addr, blob):
        self.data[addr : addr + len(blob)] = blob


def make_handler(tmp_path, **kw):
    mem = FakeMem()
    out, err = [], []
    handler = SyscallHandler(
        sandbox_dir=str(tmp_path), read_bytes=mem.read, write_bytes=mem.write,
        stdout=out.append, stderr=err.append,
        heap_start=0x1000, heap_limit=0x8000, **kw,
    )
    return handler, mem, out, err


def test_handler_sandbox_escape_refused(tmp_path):
    handler, mem, _, _ = make_handler(tmp_path)
    for path in (b"/etc/passwd\x00", b"../escape\x00", b"a/../../up\x00"):
        mem.write(0x100, path)
        ret, err = handler.handle(56, [-100 & 0xFFFFFFFF, 0x100, 0, 0, 0, 0])
        assert ret == -1
        assert err == 13  # EACCES


def test_handler_lseek_and_fstat(tmp_path):
    (tmp_path / "f.bin").write_bytes(b"x" * 1000)
    handler, mem, _, _ = make_handler(tmp_path)
    mem.write(0x100, b"f.bin\x00")
    fd, err = handler.handle(56, [-100 & 0xFFFFFFFF, 0x100, 0, 0, 0, 0])
    assert err == 0 and fd >= 3
    pos, err = handler.handle(62, [fd, 100, 0, 0, 0, 0])  # SEEK_SET
    assert (pos, err) == (100, 0)
    ret, err = handler.handle(80, [fd, 0x200, 0, 0, 0, 0])
    assert (ret, err) == (0, 0)
    size = int.from_bytes(mem.read(0x204, 4), "little")
    assert size == 1000
    handler.handle(57, [fd, 0, 0, 0, 0, 0])


def test_handler_fstat_tty_mode(tmp_path):
    handler, mem, _, _ = make_handler(tmp_path)
    ret, err = handler.handle(80, [1, 0x300, 0, 0, 0, 0])
    assert (ret, err) == (0, 0)
    mode = int.from_bytes(mem.read(0x300, 4), "little")
    assert mode & 0o170000 == 0o020000  # character device


def test_handler_brk(tmp_path):
    handler, _, _, _ = make_handler(tmp_path)
    cur, _ = handler.handle(214, [0, 0, 0, 0, 0, 0])
    assert cur == 0x1000
    new, _ = handler.handle(214, [0x2000, 0, 0, 0, 0, 0])
    assert new == 0x2000
    bad, _ = handler.handle(214, [0x9000, 0, 0, 0, 0, 0])
    assert bad == 0x2000  # out of bounds: old break returned


@pytest.mark.parametrize("state", ["heap_end", "fds", "_next_fd"])
def test_handler_state_is_not_a_constructor_argument(tmp_path, state):
    with pytest.raises(TypeError, match=state):
        make_handler(tmp_path, **{state: 0x2000})
    handler, _, _, _ = make_handler(tmp_path)
    assert handler.handle(214, [0, 0, 0, 0, 0, 0]) == (0x1000, 0)  # brk(0): heap_start


def test_handler_exit_raises(tmp_path):
    handler, _, _, _ = make_handler(tmp_path)
    with pytest.raises(ExitRequest) as exc:
        handler.handle(93, [3, 0, 0, 0, 0, 0])
    assert exc.value.status == 3


def test_handler_bad_fd(tmp_path):
    handler, _, _, _ = make_handler(tmp_path)
    ret, err = handler.handle(57, [77, 0, 0, 0, 0, 0])
    assert (ret, err) == (-1, 9)  # EBADF


def test_handler_path_running_off_guest_top_is_efault(tmp_path):
    handler, mem, _, _ = make_handler(tmp_path)
    handler.guest_top = 0x108
    mem.write(0x100, b"abcdefgh")  # no NUL before the top
    assert handler.handle(56, [-100 & 0xFFFFFFFF, 0x100, 0, 0, 0, 0]) == (-1, 14)


def test_read_into_bad_pointer_leaves_file_offset(tmp_path):
    (tmp_path / "f.bin").write_bytes(b"ABCDEFGH")
    handler, mem, _, _ = make_handler(tmp_path)

    def write_bytes(addr, blob):
        if addr >= 0x10000:
            raise MemoryFault(addr, "outside guest memory")
        mem.write(addr, blob)

    handler.write_bytes = write_bytes
    mem.write(0x100, b"f.bin\x00")
    fd, err = handler.handle(56, [-100 & 0xFFFFFFFF, 0x100, 0, 0, 0, 0])
    assert err == 0
    assert handler.handle(63, [fd, 0x10000, 4, 0, 0, 0]) == (-1, 14)  # EFAULT
    assert handler.handle(63, [fd, 0x200, 8, 0, 0, 0]) == (8, 0)
    assert mem.read(0x200, 8) == b"ABCDEFGH"


def test_handler_symlink_out_of_sandbox_refused(tmp_path):
    sandbox = tmp_path / "sandbox"
    sandbox.mkdir()
    (tmp_path / "secret.txt").write_bytes(b"x")
    (sandbox / "link").symlink_to(tmp_path / "secret.txt")
    handler, mem, _, _ = make_handler(sandbox)
    mem.write(0x100, b"link\x00")
    assert handler.handle(56, [-100 & 0xFFFFFFFF, 0x100, 0, 0, 0, 0]) == (-1, 13)  # EACCES


def test_open_of_stack_built_path_returns_fd(tmp_path):
    """sp starts at the mailbox base, so a path on the stack has less than
    MAX_PATH bytes of guest memory above it: the copy stops at the top."""
    (tmp_path / "f.txt").write_bytes(b"x")
    src = """
main:
    addi sp, sp, -16
    sw   ra, 12(sp)
    li   t0, 0x78742e66          # "f.tx"
    sw   t0, 0(sp)
    li   t0, 0x74                # "t\\0"
    sw   t0, 4(sp)
    li   a0, 56
    li   a1, -100
    mv   a2, sp
    li   a3, 0
    li   a4, 0
    jal  ra, __syscall
    lw   ra, 12(sp)
    addi sp, sp, 16
    ret
"""
    m, stats = run_guest(src, str(tmp_path))
    assert m.trap is None
    assert stats["exit_status"] == 3  # the first guest fd


def test_write_with_bad_pointer_returns_efault(tmp_path):
    src = """
main:
    addi sp, sp, -16
    sw   ra, 12(sp)
    li   a0, 64
    li   a1, 1
    li   a2, 0x00FFFFF0
    li   a3, 4
    jal  ra, __syscall
    # a0 = -1, a1 = EFAULT(14): return a1 - 13 => 1, and a0 + 2 => 1
    addi t0, a1, -13
    addi t1, a0, 2
    add  a0, t0, t1
    lw   ra, 12(sp)
    addi sp, sp, 16
    ret
"""
    m, stats = run_guest(src, str(tmp_path))
    assert m.trap is None
    assert stats["exit_status"] == 2  # 1 + 1: errno was 14 and ret was -1
    assert bytes(m.stdout_data) == b""
