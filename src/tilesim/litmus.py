"""Desk-scale litmus tests and the exhaustive interleaving explorer.

Programs are per-agent lists of scripted load/store operations executed
directly against the coherent fabric (each operation is one atomic
transaction, so an interleaving is an order of operations). The explorer
enumerates every interleaving, runs each on a fresh machine, checks the
protocol invariants after every step, and returns the set of observed
load-value outcomes. Because the fabric is sequentially consistent by
construction, the outcome set must equal a brute-force SC enumeration; the
test suite checks that against an independently written enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from .config import GUEST_RV32, HOST_AGENT, MachineConfig, MeshConfig
from .errors import SimError
from .mem.fabric import FabricPort, MemoryFabric
from .noc import Noc


@dataclass(frozen=True)
class Op:
    kind: str  # "st" | "ld"
    addr: int
    value: int = 0  # stores only


@dataclass
class LitmusTest:
    name: str
    description: str
    programs: list[list[Op]]
    forbidden: set[tuple] = field(default_factory=set)


_X = 0x9000  # two variables on different lines
_Y = 0x9040
_A = 0x9000  # two variables sharing one line
_B = 0x9004

TESTS = {
    "mp": LitmusTest(
        "mp",
        "message passing: data then flag; reader must not see flag=1,data=0",
        [[Op("st", _X, 1), Op("st", _Y, 1)], [Op("ld", _Y), Op("ld", _X)]],
        forbidden={(1, 0)},
    ),
    "mp-same-line": LitmusTest(
        "mp-same-line",
        "message passing with both variables in one cache line",
        [[Op("st", _A, 1), Op("st", _B, 1)], [Op("ld", _B), Op("ld", _A)]],
        forbidden={(1, 0)},
    ),
    "sb": LitmusTest(
        "sb",
        "store buffering: under SC at least one reader sees the other's store",
        [[Op("st", _X, 1), Op("ld", _Y)], [Op("st", _Y, 1), Op("ld", _X)]],
        forbidden={(0, 0)},
    ),
    "corr": LitmusTest(
        "corr",
        "same-address coherence: a load after the only store returns its value",
        [[Op("st", _X, 5), Op("ld", _X)]],
        forbidden={(0,)},
    ),
}


def _schedules(lengths: list[int]):
    """All interleavings as agent-index sequences (multiset permutations)."""
    tape = []
    for agent, n in enumerate(lengths):
        tape.extend([agent] * n)
    return sorted(set(permutations(tape)))


def _mini_machine(n_agents: int) -> tuple[MemoryFabric, list[FabricPort]]:
    tiles = [HOST_AGENT] + [GUEST_RV32] * n_agents
    cfg = MachineConfig(
        tiles=tiles,
        mesh=MeshConfig(width=len(tiles), height=1),
        dram_size=1 << 20,
        guest_region_size=128 * 1024,
        stack_size=4096,
    )
    cfg.validate()
    fabric = MemoryFabric(cfg, Noc(cfg.mesh, len(tiles)))
    ports = [FabricPort(fabric, tile) for tile in range(1, n_agents + 1)]
    return fabric, ports


def run_schedule(programs: list[list[Op]], schedule: tuple[int, ...]) -> tuple:
    """Execute one interleaving on a fresh machine; returns the loaded values
    in (agent, program-order) order."""
    fabric, ports = _mini_machine(len(programs))
    cursors = [0] * len(programs)
    loads: list[list[int]] = [[] for _ in programs]
    for agent in schedule:
        op = programs[agent][cursors[agent]]
        cursors[agent] += 1
        if op.kind == "st":
            ports[agent].store(op.addr, 4, op.value)
        else:
            value, _ = ports[agent].load(op.addr, 4)
            loads[agent].append(value)
        fabric.check_global_invariants()
    if any(c != len(p) for c, p in zip(cursors, programs)):
        raise SimError("schedule did not run every operation")  # stuck state
    return tuple(v for per_agent in loads for v in per_agent)


def explore(programs: list[list[Op]]) -> set[tuple]:
    """Outcome set over every interleaving; asserts invariants throughout."""
    total_ops = sum(len(p) for p in programs)
    if total_ops > 8:
        raise SimError("explorer is for desk scale (<= 8 operations)")
    outcomes = set()
    for schedule in _schedules([len(p) for p in programs]):
        outcomes.add(run_schedule(programs, schedule))
    return outcomes


def run_litmus(name: str) -> dict:
    """Run one named litmus test; returns a small report dict."""
    if name not in TESTS:
        raise SimError(f"unknown litmus test {name!r} (have {', '.join(sorted(TESTS))})")
    test = TESTS[name]
    outcomes = explore(test.programs)
    hits = outcomes & test.forbidden
    return {
        "name": test.name,
        "description": test.description,
        "interleavings": len(_schedules([len(p) for p in test.programs])),
        "outcomes": sorted(outcomes),
        "forbidden_seen": sorted(hits),
        "forbidden_count": len(hits),
    }
