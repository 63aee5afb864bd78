"""Three-channel 2D-mesh interconnect.

Channel assignment: coherence requests (GetShared/GetModified/Invalidate/
Downgrade) on 1, responses and data on 2, writebacks and interrupts on 3.
The mesh models hop distance only: a message between two tiles crosses the
Manhattan distance between their coordinates, the length of any minimal
(e.g. dimension-ordered) route; no path or link is modelled.

Coherence messages are sent inside an atomic memory transaction. The mesh
counts each one on its channel and traces its hop count; it carries no
payload, because the fabric calls the receiving handler directly. Transit
time is subsumed in the fabric's per-service-level latency budgets. The one
interrupt, the host's start, arrives send + hops * hop_cycles after it is
sent; the sender wakes the guest core at that time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import MeshConfig
from .errors import ConfigError

CH_REQ = 1
CH_RESP = 2
CH_WB_IRQ = 3

# protocol message name -> channel
CHANNEL_OF = {
    "GetShared": CH_REQ,
    "GetModified": CH_REQ,
    "Invalidate": CH_REQ,
    "Downgrade": CH_REQ,
    "DataShared": CH_RESP,
    "DataModified": CH_RESP,
    "InvalidateAck": CH_RESP,
    "DowngradeAck": CH_RESP,
    "Writeback": CH_WB_IRQ,
    "Interrupt": CH_WB_IRQ,
}


@dataclass
class Noc:
    mesh: MeshConfig
    n_tiles: int
    trace: object = None  # callable(str) or None
    injected: dict = field(default_factory=lambda: {1: 0, 2: 0, 3: 0})

    def __post_init__(self):
        if self.n_tiles > self.mesh.width * self.mesh.height:
            raise ConfigError("more tiles than mesh positions")

    # -- geometry ---------------------------------------------------------

    def coord(self, tile: int) -> tuple[int, int]:
        if not 0 <= tile < self.n_tiles:
            raise ConfigError(f"tile {tile} is not on the mesh")
        return tile % self.mesh.width, tile // self.mesh.width

    def hop_count(self, src: int, dst: int) -> int:
        (x, y), (dx, dy) = self.coord(src), self.coord(dst)
        return abs(x - dx) + abs(y - dy)

    # -- synchronous coherence transfer ------------------------------------

    def transfer(self, subkind: str, src: int, dst: int, line: int, when: int = 0):
        """Count and trace one coherence message sent inside a transaction."""
        channel = CHANNEL_OF[subkind]
        self.injected[channel] += 1
        if self.trace:
            self.trace(
                f"COH cycle={when} ch={channel} {subkind} src={src} dst={dst}"
                f" line=0x{line:08x} hops={self.hop_count(src, dst)}"
            )

    # -- interrupts --------------------------------------------------------

    def send_interrupt(self, src: int, dst: int, irq: str, when: int) -> int:
        """Count and trace one interrupt; returns its delivery time."""
        delivery = when + self.hop_count(src, dst) * self.mesh.hop_cycles
        self.injected[CHANNEL_OF["Interrupt"]] += 1
        if self.trace:
            self.trace(f"IRQ cycle={when} kind={irq} src={src} dst={dst} deliver@{delivery}")
        return delivery

    # -- accounting ---------------------------------------------------------

    def counts(self) -> dict:
        """Every counter under its stats key. No message is ever lost, so each
        channel's delivered count is its injected count."""
        out = {}
        for ch, n in self.injected.items():
            out[f"noc.ch{ch}.injected"] = n
            out[f"noc.ch{ch}.delivered"] = n
        return out
