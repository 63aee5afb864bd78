"""Golden lock: outputs that a change which claims not to move the model must
reproduce byte for byte.

- The corpus (hanoi, binsearch, quicksort) at seeds 0 and 99: sha256 of the
  stats JSON, of the guest stdout and of the `--trace` file
  (`test_bench.py::test_corpus_matches_golden`).
- hello on two layouts other than the default host-then-guest pair: sha256 of
  its stats JSON and `--trace` file. They pin the start schedule where the
  default layout does not reach it: a guest tile below the host tile (ties
  at one cycle then go to the guest) and a start interrupt that crosses two
  hops of 3 cycles each.
- A multi-guest coherence hammer on a tiny geometry: sha256 of its COH/DIR/MEM
  trace and of the fabric counters. The tiny caches make it reach the paths
  that the corpus and the default-geometry litmus tests never do (L2
  inclusion recalls, L1.5 dirty writebacks, invalidations of stale sharers);
  wrappers from tests/coherence_paths.py assert that it still reaches each
  of them.
- The latency probe: its no-jitter table, and the exact uncached load and
  store latencies of 8 jittered trials at seed 0. The lists lock the order
  in which runs draw DRAM jitter, where the acceptance test checks only
  their range.
- The benchmark guests memwalk and sysio at seed 0: sha256 of the stats
  JSON, of the guest stdout and of the `--trace` file
  (`test_idle_polls.py::test_benchmark_guest_fast_path_equals_slow_path`).
  sysio is the host's syscall copy path.
- Every bundled program's ELF: its length and sha256. These are hello, the
  three corpus benchmarks, the four latency probes, the rv32ui suite and the
  three perfbench workloads at seeds 0 and 1. An assembler change that
  claims to move no program must leave every byte in place.

Every trace is locked by `trace_digest`: its whole-file sha256 plus, per record
type, a line count and a sha256 over that type's lines in order. A moved
trace then shows which record types moved, and whether only their order did.

The corpus, layout and benchmark-guest runs come from the session's run table
(runs.py), so each is made once however many tests read it.

The files under tests/golden/ change only in a commit of their own that says
why the model moved.
"""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from coherence_paths import watch_coherence_paths
from runs import LAYOUTS, perfbench
from tilesim import corpus
from tilesim.config import CacheGeometry, MachineConfig, MeshConfig, TimingConfig
from tilesim.harness import _suite_config, bundled_suite_elves, run_latency_probe
from tilesim.mem.cache import LineState
from tilesim.mem.fabric import FabricPort, MemoryFabric
from tilesim.noc import Noc

GOLDEN = Path(__file__).parent / "golden"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


TRACE_TYPES = ("MEM", "COH", "DIR", "IRQ", "HOST", "SYS", "WARN")


def trace_digest(trace: bytes) -> dict:
    """A trace's whole-file sha256 and, for each record type, its line count
    and a sha256 over that type's lines in order. When a golden trace moves,
    the failing compare names the types that moved and says whether only
    their order changed (equal counts) or their content too."""
    by_type = {kind: [] for kind in TRACE_TYPES}
    for line in trace.decode().splitlines():
        kind = line.split(" ", 1)[0]
        assert kind in by_type, f"trace line of unknown type: {line!r}"
        by_type[kind].append(line)
    return {"sha256": sha256(trace),
            **{kind: {"lines": len(lines), "sha256": sha256("\n".join(lines).encode())}
               for kind, lines in by_type.items()}}


def run_digests(run) -> dict:
    """A traced run's stats JSON, stdout and trace, as the golden files lock them."""
    return {
        "stats": sha256(run.stats.encode()),
        "stdout": sha256(run.stdout),
        "trace": trace_digest(run.trace.read_bytes()),
    }


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_start_schedule_on_layout_matches_golden(layout, runs):
    cfg = LAYOUTS[layout]
    hello = runs(f"hello@{layout}", traced=True)
    assert hello.stdout == b"hello\n"

    lines = hello.trace.read_text(encoding="utf-8").splitlines()
    host, guest = cfg.host_tile(), cfg.guest_tile()
    irq = re.fullmatch(r"IRQ cycle=(\d+) kind=start src=(\d+) dst=(\d+) deliver@(\d+)",
                       next(line for line in lines if line.startswith("IRQ ")))
    sent, deliver = int(irq[1]), int(irq[4])
    assert (int(irq[2]), int(irq[3])) == (host, guest)
    hops = Noc(cfg.mesh, len(cfg.tiles)).hop_count(host, guest)
    assert deliver == sent + hops * cfg.mesh.hop_cycles
    first_fetch = next(line for line in lines
                       if line.startswith("MEM cycle=") and f" tile={guest} kind=ifetch" in line)
    assert first_fetch.startswith(f"MEM cycle={deliver} ")

    got = {"stats": sha256(hello.stats.encode()), "trace": trace_digest(hello.trace.read_bytes())}
    assert got == load_golden("layouts.json")[layout]


def test_latency_probe_matches_golden(probe_no_jitter):
    golden = load_golden("probe.json")
    assert probe_no_jitter.lines() == golden["no_jitter"]
    jittered = run_latency_probe(MachineConfig(seed=0), jitter=True, trials=8)
    assert {"loads": jittered.uncached_load_trials,
            "stores": jittered.uncached_store_trials} == golden["jitter_seed0_trials8"]


HAMMER_OPS = 2000
HAMMER_SEED = 7


def hammer_fabric(trace):
    tiles = ["host-agent"] + ["guest-rv32"] * 3
    cfg = MachineConfig(
        tiles=tiles,
        mesh=MeshConfig(width=2, height=2),
        cache=CacheGeometry(l15_size_bytes=64, l15_associativity=2, line_size_bytes=16,
                            l2_slice_size_bytes=128, l2_associativity=2),
        timing=TimingConfig(dram_jitter_cycles=1),
        seed=HAMMER_SEED,
        dram_size=1 << 20,
        guest_region_size=256 * 1024,
    )
    cfg.validate()
    return MemoryFabric(cfg, Noc(cfg.mesh, len(tiles), trace=trace), trace=trace)


def test_multi_guest_hammer_matches_golden():
    lines = []
    fabric = hammer_fabric(lines.append)
    reached = watch_coherence_paths(fabric)
    ports = [FabricPort(fabric, tile) for tile in range(fabric.n_tiles)]
    rng = random.Random(HAMMER_SEED)
    pool = [0x4000 + 16 * i for i in range(30)]
    flat = {}
    for now in range(HAMMER_OPS):
        port = rng.choice(ports)
        port.now_fn = lambda: now
        addr = rng.choice(pool) + 4 * rng.randrange(4)
        if rng.random() < 0.5:
            value = rng.getrandbits(32)
            port.store(addr, 4, value)
            flat[addr] = value
        else:
            assert port.load(addr, 4)[0] == flat.get(addr, 0)
    fabric.check_global_invariants()

    M, S = LineState.MODIFIED.value, LineState.SHARED.value
    assert reached >= {f"Downgrade:{M}", f"Invalidate:{M}", f"Invalidate:{S}",
                       "Invalidate:stale", f"L2 recall:{M}", f"L2 recall:{S}", "Writeback"}
    got = {
        "trace": trace_digest("\n".join(lines).encode()),
        "stats": sha256(json.dumps({k: n for k, n in fabric.counts().items() if n},
                                   sort_keys=True).encode()),
    }
    assert got == load_golden("hammer.json")


def bundled_programs() -> dict[str, bytes]:
    """name -> ELF of every program that the repo assembles from its own sources."""
    cfg = MachineConfig()
    elves = {"hello": corpus.hello_elf(cfg)}
    for name in corpus.BENCH_NAMES:
        elves[name] = corpus.bench_elf(name, cfg)
    for op in corpus.PROBE_OPS:
        for cached in (True, False):
            elf, _ = corpus.probe_elf(op, cached, cfg)
            elves[f"probe-{op}-{'cached' if cached else 'uncached'}"] = elf
    for name, elf in bundled_suite_elves(_suite_config(cfg)).items():
        elves[f"rv32ui-{name}"] = elf
    workloads = perfbench("workloads")
    for name in workloads.NAMES:
        for seed in (0, 1):
            w = workloads.make(name, seed)
            elves[f"perfbench-{name}-seed{seed}"] = w.build(w.config())
    return elves


def test_bundled_programs_match_golden():
    got = {name: {"bytes": len(elf), "sha256": sha256(elf)}
           for name, elf in sorted(bundled_programs().items())}
    assert got == load_golden("programs.json")
