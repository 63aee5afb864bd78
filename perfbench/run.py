"""Benchmark of the tilesim simulator: host speed and the simulated model.

    python3 perfbench/run.py --workload {quicksort,memwalk,sysio} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --record-golden

Run from the root of a checkout; the simulator is imported from its `src/`.
One process, no threads, a closed loop: each iteration sets up one simulated
machine (assemble, ELF, sandbox, `Machine`) and runs it to completion, and
the next starts only when the last has finished, until S seconds have gone.
Every run's output is checked. The last line of stdout is one JSON object:
with --trace 0 the end-to-end metrics of BENCHMARK.json from untraced runs;
with --trace 1 its per-layer metrics, from one extra run with span wrappers
installed on the layers (see tracer.py) after the same untraced loop.
perfbench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "tilesim", "__init__.py")):
    die(f"no simulator source at {SRC}; run from the root of a tilesim checkout")
sys.path.insert(0, SRC)

import tilesim  # noqa: E402

if os.path.dirname(os.path.abspath(tilesim.__file__)) != os.path.join(SRC, "tilesim"):
    die(f"imported tilesim from {tilesim.__file__}, not from {SRC}")

from tilesim import corpus, host, machine as machine_mod, mailbox, noc, syscalls  # noqa: E402
from tilesim.config import MachineConfig  # noqa: E402
from tilesim.errors import SimError  # noqa: E402
from tilesim.harness import run_latency_probe  # noqa: E402
from tilesim.mem import cache, fabric  # noqa: E402
from tilesim.rv32 import core  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

DEFAULT_SEED = 0
SETUP_SAMPLES = 11  # odd, so the median set-up is one real sample
PROBE_TRIALS = 8
# the paper's bracketed-load numbers (cycles), jitter off
PAPER_PROBE = {"cached_load": 17, "cached_store": 17, "uncached_load": 113, "uncached_store": 113}
JITTERED_RANGE = (112, 114)  # an uncached access under the 100 +/- 1 cycle DRAM jitter
# counters a speed-up must leave unchanged: recorded at the default seed
MODEL_KEYS = ("total_cycles", "guest_cycles", "guest_instructions")
MODEL_PREFIXES = ("syscalls.", "l15.", "l2.", "dram.", "noc.")

clock = time.perf_counter


def model_counters(counters: dict) -> dict:
    return {k: v for k, v in sorted(counters.items())
            if k in MODEL_KEYS or k.startswith(MODEL_PREFIXES)}


def model_error(seed: int) -> int:
    """Sum of |probe - paper| with jitter off, plus each jittered uncached
    trial's distance outside 113 +/- 1. Zero when the model holds."""
    report = run_latency_probe(MachineConfig(seed=seed), jitter=True,
                               trials=PROBE_TRIALS)
    err = sum(abs(getattr(report, key) - ref) for key, ref in PAPER_PROBE.items())
    lo, hi = JITTERED_RANGE
    for trial in report.uncached_load_trials + report.uncached_store_trials:
        err += max(lo - trial, trial - hi, 0)
    return err


# -- one set-up and one run -------------------------------------------------------

_sandbox_ids = itertools.count(1)


def set_up(w: workloads.Workload, config, split: bool = False):
    """Assemble, write the ELF, make the sandbox and build the Machine.

    Returns (machine, sandbox, parts): parts are host seconds. With `split`,
    ELF writing is timed apart from assembling by a wrapper on the corpus'
    `program_to_elf`.
    """
    elf_timer = Tracer()
    if split:
        elf_timer.wrap(corpus, "program_to_elf", "setup.elf")
    try:
        t0 = clock()
        elf = w.build(config)
        t1 = clock()
    finally:
        elf_timer.unwrap_all()
    sandbox = w.make_sandbox(os.path.join(OUT, f"sandbox-{os.getpid()}-{next(_sandbox_ids)}"))
    t2 = clock()
    machine = machine_mod.Machine(config, binary=elf, sandbox_dir=sandbox)
    t3 = clock()
    elf_s = elf_timer.layer("setup.elf")[1]
    parts = {"assemble_s": t1 - t0 - elf_s, "elf_s": elf_s, "sandbox_s": t2 - t1,
             "machine_init_s": t3 - t2}
    return machine, sandbox, parts


def run_once(w: workloads.Workload, config, tracer: Tracer | None = None) -> dict:
    """Set up, run and check one simulated program."""
    machine, sandbox, setup = set_up(w, config)
    if tracer is not None:
        install_layer_wrappers(tracer, machine)
    counters = None
    try:
        t0 = clock()
        try:
            counters = machine.run().counters
        finally:
            run_s = clock() - t0
            if tracer is not None:
                tracer.unwrap_all()
        problems = w.check(machine, sandbox)
    except (SimError, OSError) as err:
        problems = [f"simulator error: {err}"]
    finally:
        workloads.remove_sandbox(sandbox)
    return {"setup": setup, "run_s": run_s, "counters": counters, "problems": problems}


# -- the traced run's wrappers -----------------------------------------------------

# layers reported as <name>.calls and <name>.self_s
SPAN_LAYERS = (
    "rv32.decode", "rv32.core.step", "core.advance",
    "mem.fabric.hit", "mem.fabric.miss_l2", "mem.fabric.miss_dram",
    "mem.cache.lookup", "mem.fabric.directory_handle", "mem.fabric.cache_handle",
    "mem.fabric.dram_read", "mem.fabric.dram_write", "noc.transfer",
    "mailbox.poll", "host.advance", "host.read_guest_bytes", "host.write_guest_bytes",
    "syscalls.handle",
)
NOC_SUBKINDS = {"Invalidate": "noc.invalidate.count", "Downgrade": "noc.downgrade.count",
                "Writeback": "noc.writeback.count"}


def install_layer_wrappers(tr: Tracer, machine):
    """Wrap each layer's public entry points. The posts keep counts at the
    same boundaries: the core's cycle split, the fabric's service level and
    origin, coherence messages by kind, useful polls and copied bytes."""
    host_tile = machine.config.host_tile()
    level = {fabric.SERVICED_L15: tr.name_id("mem.fabric.hit"),
             fabric.SERVICED_L2: tr.name_id("mem.fabric.miss_l2"),
             fabric.SERVICED_DRAM: tr.name_id("mem.fabric.miss_dram")}
    counts = tr.counts
    for key in ("rv32.core.fetch_cycles", "rv32.core.exec_cycles", "rv32.core.data_cycles",
                "mem.fabric.host.calls", "mailbox.poll.useful", "host.guest_bytes_copied",
                *NOC_SUBKINDS.values()):
        counts.setdefault(key, 0)

    def step_post(_args, r):
        counts["rv32.core.fetch_cycles"] += r.fetch_cycles
        counts["rv32.core.exec_cycles"] += r.exec_cycles
        counts["rv32.core.data_cycles"] += r.data_cycles

    def access_post(args, result):
        if args[1] == host_tile:
            counts["mem.fabric.host.calls"] += 1
        return level[result[1].serviced_by]

    def transfer_post(args, _msg):
        key = NOC_SUBKINDS.get(args[1])
        if key:
            counts[key] += 1

    def poll_post(_args, request):
        if request is not None:
            counts["mailbox.poll.useful"] += 1

    def read_post(args, _data):
        counts["host.guest_bytes_copied"] += args[2]

    def write_post(args, _result):
        counts["host.guest_bytes_copied"] += len(args[2])

    tr.wrap(core, "decode", "rv32.decode")
    tr.wrap(core.Rv32Core, "step", "rv32.core.step", step_post)
    tr.wrap(machine_mod.CoreAgent, "advance", "core.advance")
    tr.wrap(fabric.MemoryFabric, "access", "mem.fabric.access", access_post)
    tr.wrap(fabric.MemoryFabric, "directory_handle", "mem.fabric.directory_handle")
    tr.wrap(fabric.MemoryFabric, "cache_handle", "mem.fabric.cache_handle")
    tr.wrap(fabric.MemoryFabric, "dram_read", "mem.fabric.dram_read")
    tr.wrap(fabric.MemoryFabric, "dram_write", "mem.fabric.dram_write")
    tr.wrap(cache.CacheArray, "lookup", "mem.cache.lookup")
    tr.wrap(noc.Noc, "transfer", "noc.transfer", transfer_post)
    tr.wrap(mailbox.HostMailbox, "poll", "mailbox.poll", poll_post)
    tr.wrap(syscalls.SyscallHandler, "handle", "syscalls.handle")
    tr.wrap(host.HostAgent, "advance", "host.advance")
    tr.wrap(host.HostAgent, "read_guest_bytes", "host.read_guest_bytes", read_post)
    tr.wrap(host.HostAgent, "write_guest_bytes", "host.write_guest_bytes", write_post)
    tr.wrap(machine_mod.Machine, "run", "machine.run")


def layer_metrics(tr: Tracer, counters: dict, guest_tile: int) -> dict:
    m = {}
    for name in SPAN_LAYERS:
        m[f"{name}.calls"], m[f"{name}.self_s"] = tr.layer(name)
    m["machine.run.self_s"] = tr.layer("machine.run")[1]
    m.update({k: v for k, v in tr.counts.items() if k != "mailbox.poll.useful"})
    polls = m["mailbox.poll.calls"]
    m["mailbox.poll.useful_ratio"] = tr.counts["mailbox.poll.useful"] / polls if polls else 0.0
    data = counters[f"l15.tile{guest_tile}.data_accesses"]
    m["mem.l15.guest_data_miss_rate"] = (
        counters[f"l15.tile{guest_tile}.data_misses"] / data if data else 0.0)
    lookups = sum(v for k, v in counters.items() if k.startswith("l2.") and k.endswith(".lookups"))
    misses = sum(v for k, v in counters.items() if k.startswith("l2.") and k.endswith(".misses"))
    m["mem.l2.miss_rate"] = misses / lookups if lookups else 0.0
    m["mem.dram.reads"] = counters["dram.reads"]
    m["mem.dram.writes"] = counters["dram.writes"]
    m["syscalls.roundtrip_cycles"] = counters["syscalls.roundtrip_cycles"]
    return m


# -- the benchmark -------------------------------------------------------------------


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    if golden.get("seed") != DEFAULT_SEED:
        die(f"{GOLDEN} was not recorded at seed {DEFAULT_SEED}")
    return golden["workloads"]


def closed_loop(w: workloads.Workload, config, seconds: float) -> list[dict]:
    """Run the workload back to back for `seconds`; checks every run against
    the first run's counters and, at the default seed, the golden counters."""
    golden = load_golden().get(w.name) if w.seed == DEFAULT_SEED else None
    runs = []
    reference = None
    t_end = clock() + seconds
    while not runs or clock() < t_end:
        run = run_once(w, config)
        gc.collect()
        if run["counters"] is not None:
            model = model_counters(run["counters"])
            if reference is None:
                reference = model
                if w.seed == DEFAULT_SEED and golden != model:
                    run["problems"].append("simulated counters differ from perfbench/golden.json")
            elif model != reference:
                run["problems"].append("simulated counters differ from the first run's")
        runs.append(run)
    return runs


def median_setup(samples: list[dict]) -> dict:
    """The parts of the set-up whose total is the median, so they sum to it."""
    ranked = sorted(samples, key=lambda parts: sum(parts.values()))
    return ranked[len(ranked) // 2]


def more_setups(w, config, have: int, split: bool) -> list[dict]:
    samples = []
    while have + len(samples) < SETUP_SAMPLES:
        machine, sandbox, parts = set_up(w, config, split)
        workloads.remove_sandbox(sandbox)
        del machine
        gc.collect()
        samples.append(parts)
    return samples


def end_to_end(w, config, runs: list[dict]) -> dict:
    setups = [r["setup"] for r in runs] + more_setups(w, config, len(runs), split=False)
    timed = [r for r in runs if r["counters"] is not None]
    counters = timed[0]["counters"]
    instructions = counters["guest_instructions"]
    return {
        "guest_kips": statistics.median(instructions / r["run_s"] / 1e3 for r in timed),
        "run_s": statistics.median(r["run_s"] for r in timed),
        "setup_s": sum(median_setup(setups).values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_cycles": counters["total_cycles"],
        "sim_ipc": instructions / counters["guest_cycles"],
    }


def per_layer(w, config, runs: list[dict]) -> tuple[dict, list[str]]:
    """Metrics of one traced run, and what is wrong with that run."""
    timed = [r for r in runs if r["counters"] is not None]
    tr = Tracer()
    traced = run_once(w, config, tracer=tr)
    problems = traced["problems"]
    counters = traced["counters"]
    if counters is None:
        return {}, problems
    if model_counters(counters) != model_counters(timed[0]["counters"]):
        problems.append("traced run's simulated counters differ from the untraced run's")
    split = tr.counts["rv32.core.fetch_cycles"] + tr.counts["rv32.core.exec_cycles"] \
        + tr.counts["rv32.core.data_cycles"]
    if split != counters["guest_cycles"]:
        problems.append(f"fetch + exec + data = {split} cycles,"
                        f" guest_cycles = {counters['guest_cycles']}")
    tr.write(os.path.join(OUT, f"spans-{w.name}"))
    m = layer_metrics(tr, counters, config.guest_tile())
    setup = median_setup(more_setups(w, config, 0, split=True))
    m.update({f"setup.{k}": v for k, v in setup.items()})
    m["trace.overhead_ratio"] = traced["run_s"] / statistics.median(r["run_s"] for r in timed)
    return m, problems


def benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if trace else "end_to_end"]
    w = workloads.make(name, seed)
    config = w.config()
    model_err = model_error(seed)
    runs = closed_loop(w, config, seconds)
    problems = [p for r in runs for p in r["problems"]]
    failed = sum(1 for r in runs if r["problems"])
    attempted = len(runs)
    if not any(r["counters"] is not None for r in runs):
        die(f"{name}: no run finished: {problems[0]}")
    if trace:
        metrics, traced_problems = per_layer(w, config, runs)
        problems += [f"traced run: {p}" for p in traced_problems]
        attempted += 1
        failed += bool(traced_problems)
    else:
        metrics = end_to_end(w, config, runs)
    if metrics and set(metrics) != {m["name"] for m in wanted}:
        die(f"metrics {sorted(set(metrics) ^ {m['name'] for m in wanted})}"
            " do not match BENCHMARK.json")
    for p in problems:
        print(f"perfbench: {name}: {p}", file=sys.stderr)
    print(f"{name} seed={seed}: {attempted} runs, {failed} failed,"
          f" fail_ratio={failed / attempted:g}, model_err_cycles={model_err}")
    return {
        "correct": not problems and model_err == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }


def record_golden():
    """Write golden.json: the model counters of each workload at the default seed."""
    out = {}
    for name in workloads.NAMES:
        w = workloads.make(name, DEFAULT_SEED)
        run = run_once(w, w.config())
        if run["problems"]:
            die(f"{name}: {run['problems']}")
        out[name] = model_counters(run["counters"])
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "workloads": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from this tree at the default seed")
    args = parser.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
