"""Set-associative cache arrays used for both the private caches and the
shared L2 slices. Replacement is LRU with ties broken by lowest way index.

An index from line address to the way last installed with it makes a lookup
one dict probe. Only `install` moves it; a line invalidated in place stays
indexed, and `lookup` rejects it as invalid."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class LineState(enum.Enum):
    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"


@dataclass
class CacheLine:
    addr: int = 0  # line-aligned address
    state: LineState = LineState.INVALID
    data: bytearray = field(default_factory=bytearray)
    lru: int = 0


class CacheArray:
    def __init__(self, size_bytes: int, associativity: int, line_size: int):
        self.line_size = line_size
        self.ways = associativity
        self.n_sets = size_bytes // line_size // associativity
        self.sets = [[CacheLine() for _ in range(associativity)] for _ in range(self.n_sets)]
        self._tick = 0
        self._index: dict[int, CacheLine] = {}

    def set_index(self, line_addr: int) -> int:
        return (line_addr // self.line_size) % self.n_sets

    def lookup(self, line_addr: int) -> CacheLine | None:
        line = self._index.get(line_addr)
        if line is not None and line.state is not LineState.INVALID and line.addr == line_addr:
            return line
        return None

    def touch(self, line: CacheLine):
        self._tick += 1
        line.lru = self._tick

    def victim(self, line_addr: int) -> CacheLine:
        """The way a new line would displace: first invalid way, else LRU
        (lowest way index on ties)."""
        ways = self.sets[self.set_index(line_addr)]
        for line in ways:
            if line.state is LineState.INVALID:
                return line
        return min(ways, key=lambda l: l.lru)  # min() keeps the first == lowest way

    def install(self, line: CacheLine, line_addr: int, data: bytearray, state: LineState):
        """Place a line into `line`, the way victim(line_addr) picked, whose
        previous contents the caller has dealt with. The line keeps `data`
        itself, so pass a bytearray that nothing else holds."""
        if self._index.get(line.addr) is line:
            del self._index[line.addr]
        self._index[line_addr] = line
        line.addr = line_addr
        line.state = state
        line.data = data
        self.touch(line)

    def resident_lines(self):
        for ways in self.sets:
            for line in ways:
                if line.state is not LineState.INVALID:
                    yield line
