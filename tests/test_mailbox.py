"""Mailbox ABI: frozen layout, state machine under exhaustive poll cadences,
and the randomized 1,000-syscall fuzz with poll intervals in [1, 200]."""

import random

import pytest

from guest_stub import GuestRequester, guest_request
from tilesim import mailbox as mb
from tilesim.config import MAILBOX_SIZE, MachineConfig, MeshConfig
from tilesim.errors import SimError
from tilesim.mem.fabric import FabricPort, MemoryFabric
from tilesim.noc import Noc


def make_fabric():
    cfg = MachineConfig(
        dram_size=1 << 20,
        guest_region_size=128 * 1024,
        stack_size=4096,
        mesh=MeshConfig(width=2, height=1),
    )
    cfg.validate()
    return MemoryFabric(cfg, Noc(cfg.mesh, 2)), cfg


MB_BASE = 0x40000  # 64-byte aligned scratch area


def make_pair():
    fabric, _ = make_fabric()
    guest = GuestRequester(FabricPort(fabric, 1), MB_BASE)
    host = mb.HostMailbox(FabricPort(fabric, 0), MB_BASE)
    return fabric, guest, host


def test_layout_is_frozen():
    # ABI v1: these offsets are load-bearing for the guest runtime
    assert MAILBOX_SIZE == 64
    assert mb.OFF_STATUS == 0
    assert mb.OFF_NUMBER == 4
    assert mb.OFF_ARGS == 8
    assert mb.NUM_ARGS == 6
    assert mb.OFF_RETVAL == 32
    assert mb.OFF_ERRNO == 36
    assert mb.OFF_RESERVED == 40
    assert (mb.STATUS_EMPTY, mb.STATUS_REQUESTED, mb.STATUS_DONE) == (0, 1, 2)


def test_poll_on_empty_and_done_returns_none():
    fabric, guest, host = make_pair()
    assert host.poll() is None  # EMPTY
    result = guest_request(guest.port, MB_BASE, 64, [1, 2, 3],
                           host_service=lambda: _serve(host, lambda n, a: (7, 0)))
    assert result == (7, 0)
    assert host.poll() is None  # back to EMPTY


def _serve(host, fn):
    req = host.poll()
    if req is not None:
        ret, err = fn(req.number, req.args)
        host.complete(ret, err)


def test_request_decodes_number_and_args():
    fabric, guest, host = make_pair()
    seen = {}

    def fn(number, args):
        seen["number"] = number
        seen["args"] = args
        return 5, 0

    guest_request(guest.port, MB_BASE, 64, [1, 0xDEADBEEF, 5],
                  host_service=lambda: _serve(host, fn))
    assert seen["number"] == 64
    assert seen["args"] == [1, 0xDEADBEEF, 5, 0, 0, 0]


def test_errno_propagates():
    fabric, guest, host = make_pair()
    ret, err = guest_request(guest.port, MB_BASE, 9999, [],
                             host_service=lambda: _serve(host, lambda n, a: (-1, 38)))
    assert ret == 0xFFFFFFFF  # -1 as stored
    assert err == 38


def test_host_complete_without_request_asserts():
    fabric, guest, host = make_pair()
    with pytest.raises(SimError, match="host_complete"):
        host.complete(0, 0)


def test_guest_request_while_busy_asserts():
    fabric, guest, host = make_pair()
    guest.start(64, [])
    for _ in range(12):
        guest.step()  # walks past the status write without the host replying
    second = GuestRequester(FabricPort(fabric, 1), MB_BASE)
    second.start(64, [])
    with pytest.raises(SimError, match="busy"):
        second.step()


def test_status_written_last_on_request():
    """Whenever the host sees REQUESTED, number/args are already complete."""
    fabric, guest, host = make_pair()
    guest.start(0x1234, [11, 22, 33, 44, 55, 66])
    for _ in range(100):
        if guest.step() is not None:
            break
        req = host.poll()
        if req is not None:
            assert req.number == 0x1234
            assert req.args == [11, 22, 33, 44, 55, 66]
            host.complete(1, 0)


@pytest.mark.parametrize("interval", list(range(1, 26)))
def test_state_machine_under_every_poll_cadence(interval):
    """EMPTY -> REQUESTED -> DONE -> EMPTY exactly once per request, for every
    poll interval and phase at desk scale (exhaustive in the cadence family)."""
    for offset in range(0, min(interval, 6)):
        fabric, guest, host = make_pair()
        transitions = []
        fabric.watch(MB_BASE + mb.OFF_STATUS, lambda _a, data, _origin, _now:
                     transitions.append(int.from_bytes(data, "little")))
        ticks = offset
        for serial in range(3):
            guest.start(100 + serial, [serial])
            result = None
            while result is None:
                result = guest.step()
                ticks += 1
                if ticks % interval == 0:
                    _serve(host, lambda n, a: (n * 2, 0))
            assert result == ((100 + serial) * 2, 0)
        assert transitions == [1, 2, 0] * 3
        fabric.check_global_invariants()


def test_fuzz_1000_syscalls_random_poll_intervals():
    rng = random.Random(0xF0CCAC1A)
    fabric, guest, host = make_pair()
    serviced = []

    def fn(number, args):
        serviced.append(number)
        return (number ^ args[0]) & 0x7FFFFFFF, number & 0xFF

    reserved_port = FabricPort(fabric, 0)
    poll_timer = rng.randint(1, 200)
    for serial in range(1000):
        number = rng.choice([64, 63, 57, 80, 9999, 0, 214]) + serial % 3
        arg0 = rng.getrandbits(32)
        guest.start(number, [arg0])
        result = None
        while result is None:
            result = guest.step()
            poll_timer -= 1
            if poll_timer == 0:
                _serve(host, fn)
                poll_timer = rng.randint(1, 200)
        expect = ((number ^ arg0) & 0x7FFFFFFF, number & 0xFF)
        assert result == expect, f"syscall {serial}"
        if serial % 97 == 0:
            _assert_reserved_zero(reserved_port)
    assert len(serviced) == 1000  # exactly once each
    _assert_reserved_zero(reserved_port)
    fabric.check_global_invariants()


def _assert_reserved_zero(port):
    for off in range(mb.OFF_RESERVED, MAILBOX_SIZE, 4):
        value, _ = port.load(MB_BASE + off, 4)
        assert value == 0, f"reserved word at +{off} dirtied"


def test_alignment_enforced():
    fabric, _, _ = make_pair()
    with pytest.raises(SimError, match="aligned"):
        mb.HostMailbox(FabricPort(fabric, 0), MB_BASE + 4)
