"""The guest side of the mailbox ABI (see tilesim.mailbox), scripted for the
mailbox tests."""

from __future__ import annotations

from tilesim.errors import SimError
from tilesim.mailbox import (NUM_ARGS, OFF_ARGS, OFF_ERRNO, OFF_NUMBER, OFF_RETVAL,
                             OFF_STATUS, STATUS_DONE, STATUS_EMPTY, STATUS_REQUESTED)
from tilesim.mem.fabric import FabricPort


class GuestRequester:
    """Scripted guest-side stub: one fabric access per step().

    Drives exactly the stub sequence so the machine scheduler (or an
    exhaustive explorer) can interleave it with host polling at memory-access
    granularity. step() returns None while in flight and the (return_value,
    errno_value) pair once the mailbox has been released.
    """

    def __init__(self, port: FabricPort, base: int):
        self.port = port
        self.base = base
        self._gen = None
        self.result: tuple[int, int] | None = None
        self.last_latency = 0

    def start(self, number: int, args: list[int]):
        if self._gen is not None:
            raise SimError("request already in flight")
        if len(args) > NUM_ARGS:
            raise SimError("too many syscall arguments")
        self.result = None
        self._gen = self._sequence(number, list(args) + [0] * (NUM_ARGS - len(args)))

    def step(self):
        if self._gen is None:
            raise SimError("no request in flight")
        try:
            self.last_latency = next(self._gen)
        except StopIteration:
            self._gen = None
            return self.result
        return None

    def _load(self, offset):
        value, lat = self.port.load(self.base + offset, 4)
        return value, lat

    def _sequence(self, number, args):
        status, lat = self._load(OFF_STATUS)
        if status != STATUS_EMPTY:
            raise SimError("guest issued a request while the mailbox was busy")
        yield lat
        for i, arg in enumerate(args):
            yield self.port.store(self.base + OFF_ARGS + 4 * i, 4, arg & 0xFFFFFFFF)
        yield self.port.store(self.base + OFF_NUMBER, 4, number & 0xFFFFFFFF)
        # fence: program order is the fabric order here, nothing to emit
        yield self.port.store(self.base + OFF_STATUS, 4, STATUS_REQUESTED)
        while True:
            status, lat = self._load(OFF_STATUS)
            yield lat
            if status == STATUS_DONE:
                break
        ret, lat = self._load(OFF_RETVAL)
        yield lat
        err, lat = self._load(OFF_ERRNO)
        yield lat
        self.result = (ret, err)
        yield self.port.store(self.base + OFF_STATUS, 4, STATUS_EMPTY)


def guest_request(port: FabricPort, base: int, number: int, args: list[int],
                  host_service, max_steps: int = 10_000) -> tuple[int, int]:
    """Synchronous convenience: run one request, calling `host_service()`
    between guest steps to stand in for the polling host."""
    req = GuestRequester(port, base)
    req.start(number, args)
    for _ in range(max_steps):
        done = req.step()
        if done is not None:
            return done
        host_service()
    raise SimError("guest request did not complete")
