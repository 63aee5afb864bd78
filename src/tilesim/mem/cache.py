"""Set-associative cache arrays used for both the private caches and the
shared L2 slices. Replacement is LRU.

A cache holds only its resident lines: each set is an ordered dict of the
lines it holds, least recently used first, and one index from line address
to line covers all sets, so a lookup is one dict probe. A line is created by
`install`, which appends it as the most recent, and leaves through `remove`,
which marks it INVALID for anyone still holding it.

An L2 line is also its home's directory entry: its `state` is the directory
state and `holders` the private caches that may hold a copy. Private-cache
lines leave `holders` empty."""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass


class LineState(enum.Enum):
    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"


# per-step code reads these names: Python 3.11 looks `LineState.X` up via the class
INVALID, SHARED, MODIFIED = LineState



@dataclass(slots=True)
class CacheLine:
    addr: int  # line-aligned address
    state: LineState
    data: bytearray
    holders: frozenset[int] = frozenset()


class CacheArray:
    def __init__(self, size_bytes: int, associativity: int, line_size: int):
        self.line_size = line_size
        self.ways = associativity
        self.n_sets = size_bytes // line_size // associativity
        self.sets: list[OrderedDict[int, CacheLine]] = [OrderedDict()
                                                        for _ in range(self.n_sets)]
        self.index: dict[int, CacheLine] = {}  # every resident line, by address

    def lookup(self, line_addr: int) -> CacheLine | None:
        return self.index.get(line_addr)

    def hit(self, line_addr: int, store: bool) -> CacheLine | None:
        """The line at line_addr, made the most recent, if it serves a read or,
        as Modified, a store; else None, with the order unchanged."""
        line = self.index.get(line_addr)
        if line is not None and (not store or line.state is MODIFIED):
            self.sets[(line_addr // self.line_size) % self.n_sets].move_to_end(line_addr)
            return line

    def touch(self, line: CacheLine):
        self.sets[(line.addr // self.line_size) % self.n_sets].move_to_end(line.addr)

    def victim(self, line_addr: int) -> CacheLine | None:
        """The line a new line_addr would displace: None while its set has a
        free way, else the least recently used line."""
        lines = self.sets[(line_addr // self.line_size) % self.n_sets]
        if len(lines) < self.ways:
            return None
        return next(iter(lines.values()))

    def install(self, line_addr: int, data: bytearray, state: LineState) -> CacheLine:
        """Make line_addr resident in a free way, as its set's most recently
        used line, and return it. The line keeps `data` itself, so pass a
        bytearray that nothing else holds."""
        line = CacheLine(line_addr, state, data)
        self.sets[(line_addr // self.line_size) % self.n_sets][line_addr] = line
        self.index[line_addr] = line
        return line

    def remove(self, line: CacheLine):
        addr = line.addr
        del self.sets[(addr // self.line_size) % self.n_sets][addr]
        del self.index[addr]
        line.state = INVALID

    def resident_lines(self):
        return self.index.values()
