"""The coherent memory fabric.

Per-tile private caches (the guest core's first-level cache; instructions and
data both allocate) sit in front of a distributed shared L2 whose slices are
line-interleaved across tiles by address. Each L2 slice embeds the directory
for the lines it homes: an L2 line is its own directory entry, whose state
and holder set run an MSI protocol with stable states only. Invalid: no
holders, so no cached copies (the data may sit in the L2). Shared: the
holders are the sharers. Modified: the one holder is the owner.

A memory operation is one atomic transaction that completes before the next
scheduler event, so the directory has no transient states. A miss runs as one
chain of direct calls. Each step sends its message on the mesh, which counts
and traces it and carries nothing, and then calls the handler at the far end:

    request     the requester sends GetShared/GetModified to the line's home
                (`directory_handle`)
    recalls     the home fetches the line into its L2 slice (from DRAM, first
                recalling an L2 victim from its holders), then downgrades the
                owner or invalidates the other holders (`cache_handle`); each
                acks and returns the data of a Modified copy
    data reply  the home moves the directory entry, sends DataShared or
                DataModified and returns the line's data to the requester
    install     the requester's cache installs the line, first writing back
                a Modified victim to that victim's home (`_writeback`), or
                upgrades its own Shared copy; the chain returns the line

Hits are served at the port and change no coherence state: FabricPort probes
its tile's L1.5 once, counts the hit, does the data work and takes the outcome
built at start, `hit`; `byte_hits` charges a run of one-byte hits in one call.
Only a miss reaches `access`, which counts it, runs the chain and returns the
tile's line. It keeps the name `access` because the benchmark's layer spans
wrap the fabric's entry points by name and split misses by serviced level.
The single-writer and directory invariants are checked after each miss, for
the requested line and for every line it evicts from an L1.5 or an L2 slice.
Handlers pass a line's own bytearray; the receiving level makes the one copy.

Latency charged to the requester is classified by who serviced the line:

    private-cache hit    l15_hit_cycles        (exact)
    home L2 / peer copy  l15_to_l2_cycles
    DRAM                 dram_access_cycles +/- jitter (seeded draw, exact
                         without jitter)

Shared-state evictions are silent, so a Shared line's holders may be a stale
superset of its sharers; an Invalidate to a non-holder is acked without state
change. Modified evictions write back on channel 3 and are never silent, so
ownership is never stale. L2 evictions recall the line from any holders first
(inclusion), then write DRAM.

Byte lanes: the little-endian guest core reaches the big-endian fabric through
a byte-lane converter whose effect is that guest data is stored little-endian
in address order. The model applies that effect at the port, at zero cycles:
FabricPort composes and splits every value little-endian, for fetches, loads
and stores and for guest and host ports alike, so no caller chooses or undoes
a byte order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..config import MachineConfig
from ..errors import ConfigError, MemoryFault, ProtocolError, SimError
from ..noc import Noc
from .cache import INVALID, MODIFIED, SHARED, CacheArray, CacheLine, LineState

SERVICED_L15 = "L15"
SERVICED_L2 = "L2"
SERVICED_DRAM = "DRAM"

KIND_IFETCH = "ifetch"
KIND_LOAD = "load"
KIND_STORE = "store"

# counter slots: a tile's L1.5 list holds the ifetch side, then the data side
_L15_KEYS = tuple(f"{side}_{event}" for side in ("ifetch", "data")
                  for event in ("accesses", "hits", "misses"))
_L2_KEYS = ("lookups", "hits", "misses")


@dataclass(frozen=True, slots=True)
class MemoryTransaction:
    serviced_by: str
    latency: int


class FabricPort:
    """Per-agent access port; values are little-endian compositions of the
    bytes at addr, addr+1, ... Host ports (enforce_windows) are confined to
    the registered shared window; the guest addresses physical memory freely.
    A tile outside the fabric raises ConfigError when the port is built. The
    port serves its tile's L1.5 hits and hands each miss to `access`.
    """

    def __init__(self, fabric: MemoryFabric, tile: int, enforce_windows: bool = False):
        if not 0 <= tile < fabric.n_tiles:
            raise ConfigError(f"port tile {tile} is not on the fabric ({fabric.n_tiles} tiles)")
        self.fabric = fabric
        self.tile = tile
        self.enforce_windows = enforce_windows
        self.now_fn = lambda: 0  # read only on a miss, a traced access or a watched store
        self.l15, self.counts = fabric.l15[tile], fabric.l15_counts[tile]

    def _check(self, addr: int, width: int):
        if self.enforce_windows and not self.fabric.in_window(addr, width):
            raise MemoryFault(addr, "outside the registered shared window")
        if addr % width:
            raise SimError(f"fabric access must be width-aligned (0x{addr:x}/{width})")

    def load(self, addr: int, width: int) -> tuple[int, int]:
        return self.fetch(addr, width, KIND_LOAD, 3)

    def fetch(self, addr: int, width: int = 4, kind: str = KIND_IFETCH,
              side: int = 0) -> tuple[int, int]:
        """A fetch, and the read body `load` shares; `side` is its accesses' counter slot."""
        if addr % width or self.enforce_windows:
            self._check(addr, width)
        fabric = self.fabric
        line = self.l15.hit(addr & fabric.line_mask, False)
        if line is None:
            line, tx = fabric.access(self.tile, kind, addr, width, self.now_fn())
        else:
            self.counts[side] += 1
            self.counts[side + 1] += 1
            tx = fabric.hit
        at = addr - line.addr
        data = line.data[at : at + width]
        if fabric.shadow is not None and data != fabric.shadow[addr : addr + width]:
            fabric.data_check_failed(addr, data)
        if fabric.trace:
            fabric.trace_mem(self.now_fn(), self.tile, kind, addr, data, tx)
        return int.from_bytes(data, "little"), tx.latency

    def store(self, addr: int, width: int, value: int) -> int:
        if addr % width or self.enforce_windows:
            self._check(addr, width)
        fabric = self.fabric
        line = self.l15.hit(addr & fabric.line_mask, True)
        if line is None:
            line, tx = fabric.access(self.tile, KIND_STORE, addr, width, self.now_fn())
        else:
            self.counts[3] += 1  # data_accesses
            self.counts[4] += 1  # data_hits
            tx = fabric.hit
        data = value.to_bytes(width, "little")
        at = addr - line.addr
        line.data[at : at + width] = data
        if fabric.shadow is not None:
            fabric.shadow[addr : addr + width] = data
        if fabric.trace:
            fabric.trace_mem(self.now_fn(), self.tile, KIND_STORE, addr, data, tx)
        for cb in fabric.watches.get(addr, ()):
            cb(addr, data, self.tile, self.now_fn())
        return tx.latency


class MemoryFabric:
    def __init__(self, config: MachineConfig, noc: Noc, trace=None):
        self.config = config
        self.noc = noc
        self.trace = trace
        geo = config.cache
        self.line_size = geo.line_size_bytes
        self.line_mask = ~(self.line_size - 1)
        self.n_tiles = len(config.tiles)
        self.dram = bytearray(config.dram_size)
        self.l15 = [CacheArray(geo.l15_size_bytes, geo.l15_associativity, self.line_size)
                    for _ in range(self.n_tiles)]
        self.l2 = [CacheArray(geo.l2_slice_size_bytes, geo.l2_associativity, self.line_size)
                   for _ in range(self.n_tiles)]
        self.rng = random.Random(config.seed)
        self.window = (0, 0)  # (base, size) of the host's shared window; none yet
        self.watches: dict[int, list] = {}
        self.shadow = bytearray(config.dram_size) if config.check_data_values else None
        self.l15_counts = [[0] * len(_L15_KEYS) for _ in range(self.n_tiles)]
        self.l2_counts = [[0] * len(_L2_KEYS) for _ in range(self.n_tiles)]
        self.dram_reads = 0
        self.dram_writes = 0
        self.hit = MemoryTransaction(SERVICED_L15, config.timing.l15_hit_cycles)

    # -- bookkeeping --------------------------------------------------------

    def counts(self) -> dict:
        """Every counter under its stats key, zeros included."""
        out = {}
        for tile in range(self.n_tiles):
            out.update((f"l15.tile{tile}.{key}", n)
                       for key, n in zip(_L15_KEYS, self.l15_counts[tile]))
            out.update((f"l2.tile{tile}.{key}", n)
                       for key, n in zip(_L2_KEYS, self.l2_counts[tile]))
        out["dram.reads"] = self.dram_reads
        out["dram.writes"] = self.dram_writes
        return out

    def home_of(self, line_addr: int) -> int:
        return (line_addr // self.line_size) % self.n_tiles

    def register_window(self, base: int, size: int):
        if size <= 0:
            raise SimError("zero-length shared window rejected")
        if base < 0 or base + size > len(self.dram):
            raise MemoryFault(base, "window outside the physical map")
        self.window = (base, size)

    def in_window(self, addr: int, width: int) -> bool:
        base, size = self.window
        return base <= addr and addr + width <= base + size

    def watch(self, addr: int, callback):
        self.watches.setdefault(addr, []).append(callback)

    # -- DRAM ----------------------------------------------------------------

    def dram_read(self, line_addr: int) -> tuple[bytearray, int]:
        """A copy of one line, and its latency: the access time +/- jitter."""
        if line_addr + self.line_size > len(self.dram):
            raise MemoryFault(line_addr, "beyond the physical map")
        timing = self.config.timing
        jitter = timing.dram_jitter_cycles
        latency = timing.dram_access_cycles + (self.rng.randint(-jitter, jitter) if jitter else 0)
        self.dram_reads += 1
        return self.dram[line_addr : line_addr + self.line_size], latency

    def dram_write(self, line_addr: int, data: bytearray):
        self.dram[line_addr : line_addr + self.line_size] = data
        self.dram_writes += 1

    # -- the miss path and the data side -----------------------------------------

    def access(self, tile: int, kind: str, addr: int, width: int,
               now: int = 0) -> tuple[CacheLine, MemoryTransaction]:
        """Count and run a miss of `tile`'s L1.5 for FabricPort, which checks the access and
        does the data work: returns the tile's line, now usable for `kind`, and the outcome."""
        if addr + width > len(self.dram):
            raise MemoryFault(addr)
        line_addr = addr & self.line_mask
        line = self.l15[tile].lookup(line_addr)
        if line is not None and (kind != KIND_STORE or line.state is MODIFIED):
            raise SimError(f"miss path entered for 0x{addr:08x}, which tile {tile} holds")
        side = 0 if kind == KIND_IFETCH else 3  # the slot of the side's accesses
        self.l15_counts[tile][side] += 1
        self.l15_counts[tile][side + 2] += 1  # misses
        op = "GetModified" if kind == KIND_STORE else "GetShared"
        line, tx = self._transact(tile, line, line_addr, op, now)
        if kind == KIND_STORE and line.state is not MODIFIED:
            raise ProtocolError(f"store granted on non-M line 0x{line_addr:08x}")
        return line, tx

    def data_check_failed(self, addr: int, data: bytes):
        raise SimError(f"data-value check failed at 0x{addr:08x}: read {data.hex()}"
                       f" expected {self.shadow[addr:addr + len(data)].hex()}")

    def trace_mem(self, now: int, tile: int, kind: str, addr: int, data: bytes,
                  tx: MemoryTransaction):
        """The one `MEM` trace line: an access of len(data) bytes and its outcome."""
        self.trace(f"MEM cycle={now} tile={tile} kind={kind} addr=0x{addr:08x} width={len(data)}"
                   f" value=0x{data.hex()} serviced={tx.serviced_by} latency={tx.latency}")

    def repeat_load_hits(self, tile: int, line: CacheLine, n: int):
        """Count n data loads by `tile`, each a hit on `line` with no other access
        between; one touch orders the ways as n would, unless the line is gone."""
        self.l15_counts[tile][3] += n  # data_accesses
        self.l15_counts[tile][4] += n  # data_hits
        if line.state is not INVALID:
            self.l15[tile].touch(line)

    def byte_hits(self, tile: int, addr: int, n: int, now: int,
                  data: bytes | None = None) -> tuple[bytes, int]:
        """n one-byte loads, or stores of `data`, by `tile` at addr, addr+1, ...
        in the line it has just accessed and so holds as its most recent: each
        a hit, the first at cycle `now`. Returns the bytes and their latency."""
        line = self.l15[tile].lookup(addr & self.line_mask)
        at, hit = addr - line.addr, self.hit.latency
        self.l15_counts[tile][3] += n  # data_accesses
        self.l15_counts[tile][4] += n  # data_hits
        if data is None:
            kind, out = KIND_LOAD, bytes(line.data[at : at + n])
            if self.shadow is not None and out != self.shadow[addr : addr + n]:
                self.data_check_failed(addr, out)
        else:
            kind, out = KIND_STORE, bytes(data)
            line.data[at : at + n] = out
            if self.shadow is not None:
                self.shadow[addr : addr + n] = out
        for i in range(n if self.trace else 0):
            self.trace_mem(now + i * hit, tile, kind, addr + i, out[i : i + 1], self.hit)
        for at in sorted(w - addr for w in self.watches if addr <= w < addr + n) if data else ():
            for cb in self.watches[addr + at]:
                cb(addr + at, out[at : at + 1], tile, now + at * hit)
        return out, n * hit

    # -- transaction driver ------------------------------------------------------

    def _transact(self, tile: int, line: CacheLine | None, line_addr: int, op: str,
                  now: int) -> tuple[CacheLine, MemoryTransaction]:
        """Run one miss: request, recalls, data reply, install. `line` is the
        tile's Shared copy that a GetModified upgrades, or None. Returns the
        tile's line and the miss's outcome: who serviced it, at what latency."""
        home = self.home_of(line_addr)
        self.noc.transfer(op, tile, home, line_addr, now)
        data, serviced, latency = self.directory_handle(home, op, tile, line_addr, now)
        if line is not None:  # upgrade in place; install makes a new line most recent
            line.state = MODIFIED
            line.data = bytearray(data)
            self.l15[tile].touch(line)
        else:
            state = SHARED if op == "GetShared" else MODIFIED
            line = self._install_l15(tile, line_addr, data, state, now)
        self._check_line_invariants(line_addr)
        return line, MemoryTransaction(serviced, latency)

    # -- directory side ------------------------------------------------------------

    def directory_handle(self, home: int, op: str, src: int, line_addr: int,
                         now: int) -> tuple[bytearray, str, int]:
        """One MSI transition at the home slice for a GetShared or GetModified
        from `src`: recall the copies it must, send the data reply, and return
        (the L2 line's own data, serviced level, latency)."""
        l2line, serviced, latency = self._l2_get(home, line_addr, now)
        holders = l2line.holders
        if op == "GetShared":
            if l2line.state is MODIFIED:
                (owner,) = holders
                self.noc.transfer("Downgrade", home, owner, line_addr, now)
                data = self.cache_handle(owner, "Downgrade", home, line_addr, now)
                l2line.data = bytearray(data)
            self._transition(home, l2line, SHARED, holders | {src}, now)
            reply = "DataShared"
        else:
            if l2line.state is MODIFIED and src in holders:
                raise ProtocolError(f"owner re-requested M for 0x{line_addr:08x}")
            recalled = sorted(holders - {src})
            # every Invalidate goes out before the first ack comes back
            for t in recalled:
                self.noc.transfer("Invalidate", home, t, line_addr, now)
            for t in recalled:
                data = self.cache_handle(t, "Invalidate", home, line_addr, now)
                if data is not None:
                    l2line.data = bytearray(data)
            self._transition(home, l2line, MODIFIED, frozenset({src}), now)
            reply = "DataModified"
        self.noc.transfer(reply, home, src, line_addr, now)
        return l2line.data, serviced, latency

    def _writeback(self, tile: int, line_addr: int, data: bytearray, now: int):
        """`tile` writes its Modified copy back to the home, which takes the
        line to Invalid."""
        home = self.home_of(line_addr)
        self.noc.transfer("Writeback", tile, home, line_addr, now)
        l2line = self.l2[home].lookup(line_addr)
        if l2line is None:
            raise ProtocolError(f"Writeback for untracked line 0x{line_addr:08x}")
        if l2line.state is not MODIFIED or tile not in l2line.holders:
            raise ProtocolError(f"Writeback from non-owner tile {tile} for 0x{line_addr:08x}")
        l2line.data = bytearray(data)
        self._transition(home, l2line, INVALID, frozenset(), now)

    def _transition(self, home: int, l2line: CacheLine, state: LineState,
                    holders: frozenset[int], now: int):
        l2line.state, l2line.holders = state, holders
        if self.trace:
            if state is MODIFIED:
                (owner,), shown = holders, "-"
            else:
                owner, shown = "-", ",".join(str(t) for t in sorted(holders)) or "-"
            self.trace(
                f"DIR cycle={now} home={home} line=0x{l2line.addr:08x}"
                f" state={state.value} owner={owner} sharers={{{shown}}}"
            )

    # -- cache side ------------------------------------------------------------------

    def cache_handle(self, tile: int, op: str, home: int, line_addr: int,
                     now: int) -> bytearray | None:
        """Apply a Downgrade or an Invalidate from `home` at a tile's private
        cache and send its ack; returns the data of a Modified copy, or None."""
        line = self.l15[tile].lookup(line_addr)
        if op == "Downgrade":
            if line is None or line.state is not MODIFIED:
                raise ProtocolError(
                    f"Downgrade to tile {tile} which does not own 0x{line_addr:08x}"
                )
            line.state = SHARED
            self.noc.transfer("DowngradeAck", tile, home, line_addr, now)
            return line.data
        data = None
        if line is not None:
            if line.state is MODIFIED:
                data = line.data
            self.l15[tile].remove(line)
        # a silent S-eviction can leave the sharer set stale: ack regardless
        self.noc.transfer("InvalidateAck", tile, home, line_addr, now)
        return data

    def _install_l15(self, tile: int, line_addr: int, data: bytearray, state: LineState,
                     now: int) -> CacheLine:
        """Install a copy of `data`, evicting the LRU line of a full set first."""
        cache = self.l15[tile]
        victim = cache.victim(line_addr)
        if victim is not None:
            if victim.state is MODIFIED:
                self._writeback(tile, victim.addr, victim.data, now)
            # Shared lines evict silently; the directory keeps a stale superset.
            cache.remove(victim)
            self._check_line_invariants(victim.addr)
        return cache.install(line_addr, bytearray(data), state)

    # -- L2 slice + inclusion ----------------------------------------------------------

    def _l2_get(self, home: int, line_addr: int, now: int) -> tuple[CacheLine, str, int]:
        """The home's L2 line, fetched from DRAM as Invalid on an L2 miss, with
        the level that serviced the request and its latency."""
        slice_ = self.l2[home]
        counts = self.l2_counts[home]
        counts[0] += 1
        l2line = slice_.hit(line_addr, False)
        if l2line is not None:
            counts[1] += 1
            return l2line, SERVICED_L2, self.config.timing.l15_to_l2_cycles
        counts[2] += 1
        data, latency = self.dram_read(line_addr)
        victim = slice_.victim(line_addr)
        if victim is not None:
            self._evict_l2(home, victim, now)
        return slice_.install(line_addr, data, INVALID), SERVICED_DRAM, latency

    def _evict_l2(self, home: int, victim: CacheLine, now: int):
        """Inclusion: recall/invalidate all cached copies, then write DRAM."""
        line_addr = victim.addr
        for tile in sorted(victim.holders):
            self.noc.transfer("Invalidate", home, tile, line_addr, now)
            data = self.cache_handle(tile, "Invalidate", home, line_addr, now)
            if data is not None:
                victim.data = bytearray(data)
            elif victim.state is MODIFIED:
                raise ProtocolError(f"recall of 0x{line_addr:08x} returned no data")
        self.dram_write(line_addr, victim.data)
        self.l2[home].remove(victim)
        self._check_line_invariants(line_addr)

    # -- invariants ---------------------------------------------------------------------

    def _check_line_invariants(self, line_addr: int):
        """Single-writer / directory-consistency for one line's valid private copies."""
        valid = [(t, ln) for t, cache in enumerate(self.l15)
                 if (ln := cache.lookup(line_addr)) is not None]
        if len(valid) > 1 and any(ln.state is MODIFIED for _, ln in valid):
            raise ProtocolError(
                f"single-writer violated at 0x{line_addr:08x}: "
                + ", ".join(f"tile{t}={ln.state.value}" for t, ln in valid)
            )
        entry = self.l2[self.home_of(line_addr)].lookup(line_addr)
        for t, ln in valid:
            if entry is None:
                raise ProtocolError(f"0x{line_addr:08x} cached by tile {t} but untracked")
            if (ln.state is MODIFIED) != (entry.state is MODIFIED):
                raise ProtocolError(f"0x{line_addr:08x} {ln.state.value} in tile {t},"
                                    f" {entry.state.value} in the directory")
            if t not in entry.holders:
                raise ProtocolError(f"0x{line_addr:08x} in tile {t}, missing from holders")

    def check_global_invariants(self):
        """Full sweep used by the small-scale explorers and property tests:
        every private copy against its directory entry, then every entry
        against the private copies."""
        for line_addr in {line.addr for cache in self.l15 for line in cache.resident_lines()}:
            self._check_line_invariants(line_addr)
        for slice_ in self.l2:
            for entry in slice_.resident_lines():
                state, n = entry.state, len(entry.holders)  # M: one, S: some, I: none
                if not (n == 1 if state is MODIFIED
                        else (n > 0) == (state is SHARED)):
                    raise ProtocolError(f"dir 0x{entry.addr:08x}: {state.value} with holders"
                                        f" {sorted(entry.holders)}")
                if state is MODIFIED:
                    (owner,) = entry.holders
                    line = self.l15[owner].lookup(entry.addr)
                    if line is None or line.state is not MODIFIED:
                        raise ProtocolError(f"0x{entry.addr:08x} owned by tile {owner},"
                                            " which holds no Modified copy")
