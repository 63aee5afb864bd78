"""Runners behind the CLI: the bundled ISA suite, the memory-latency probe,
and the microbenchmarks."""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from . import corpus
from .asm import assemble
from .config import MachineConfig
from .corpus import rv32ui
from .elf import parse_elf, program_to_elf
from .errors import LoadError, SimError
from .machine import Machine, RunStats


@dataclass
class TestVerdict:
    name: str
    outcome: str  # "pass" | "fail" | "malformed"
    detail: str = ""


@dataclass
class SuiteReport:
    verdicts: list[TestVerdict]

    @property
    def passed(self) -> int:
        return sum(1 for v in self.verdicts if v.outcome == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for v in self.verdicts if v.outcome == "fail")

    @property
    def malformed(self) -> int:
        return sum(1 for v in self.verdicts if v.outcome == "malformed")

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.passed > 0

    def lines(self) -> list[str]:
        out = [f"{v.outcome.upper():9s} {v.name}" + (f"  ({v.detail})" if v.detail else "")
               for v in self.verdicts]
        out.append(
            f"{self.passed} passed, {self.failed} failed, {self.malformed} malformed,"
            f" {len(self.verdicts)} total"
        )
        return out


def _suite_config(config: MachineConfig) -> MachineConfig:
    # bare-metal single tests need no heap/stack headroom: shrink for speed
    cfg = dataclasses.replace(
        config,
        guest_region_size=128 * 1024,
        dram_size=2 * 1024 * 1024,
        stack_size=4096,
        check_data_values=False,  # the data-value oracle is exercised elsewhere
    )
    cfg.validate()
    return cfg


def _expects_trap(name: str) -> bool:
    return name.endswith("-trap")


def run_isa_test(name: str, blob: bytes, config: MachineConfig) -> TestVerdict:
    try:
        image = parse_elf(blob)
    except LoadError as err:
        return TestVerdict(name, "malformed", str(err))
    tohost = image.symbols.get("tohost")
    if tohost is None:
        return TestVerdict(name, "malformed", "no tohost symbol")
    machine = Machine(config, binary=blob)
    machine.watch_tohost(tohost)
    try:
        machine.run()
    except SimError as err:
        return TestVerdict(name, "fail", f"simulator error: {err}")
    trapped = machine.trap is not None
    if _expects_trap(name):
        if trapped:
            return TestVerdict(name, "pass", "trapped as expected")
        return TestVerdict(name, "fail", f"expected a trap, tohost={machine.tohost_value}")
    if trapped:
        return TestVerdict(name, "fail", f"unexpected trap: {machine.trap}")
    if machine.tohost_value == 1:
        return TestVerdict(name, "pass")
    return TestVerdict(name, "fail", f"tohost={machine.tohost_value}")


def bundled_suite_elves(config: MachineConfig) -> dict[str, bytes]:
    out = {}
    for name, source in sorted(rv32ui.suite().items()):
        program = assemble(source, base=config.guest_base)
        out[name] = program_to_elf(program)
    return out


def run_isa_suite(config: MachineConfig, suite_dir: str | None = None) -> SuiteReport:
    """Run ELFs from a directory, or the bundled generated suite if none."""
    cfg = _suite_config(config)
    verdicts = []
    if suite_dir is not None:
        names = sorted(n for n in os.listdir(suite_dir)
                       if not n.startswith(".") and os.path.isfile(os.path.join(suite_dir, n)))
        for name in names:
            with open(os.path.join(suite_dir, name), "rb") as fh:
                blob = fh.read()
            verdicts.append(run_isa_test(os.path.splitext(name)[0], blob, cfg))
    else:
        for name, blob in bundled_suite_elves(cfg).items():
            verdicts.append(run_isa_test(name, blob, cfg))
    return SuiteReport(verdicts)


# -- latency probe ----------------------------------------------------------------


@dataclass
class ProbeReport:
    cached_load: int
    cached_store: int
    uncached_load: int
    uncached_store: int
    uncached_load_trials: list[int]
    uncached_store_trials: list[int]
    true_hit: float
    true_uncached_load: float
    true_uncached_store: float
    jitter_enabled: bool

    def lines(self) -> list[str]:
        out = [
            "operation  measured-cached  measured-uncached",
            f"load       {self.cached_load:15d}  {self.uncached_load:17d}",
            f"store      {self.cached_store:15d}  {self.uncached_store:17d}",
            f"true cache hit: ({self.cached_load} - load/store execution) / 3 accesses"
            f" = {self.true_hit:g}",
            f"true memory round trip: load {self.true_uncached_load:g},"
            f" store {self.true_uncached_store:g}",
        ]
        if self.jitter_enabled:
            lo = min(self.uncached_load_trials + self.uncached_store_trials)
            hi = max(self.uncached_load_trials + self.uncached_store_trials)
            out.append(
                f"jitter trials: {len(self.uncached_load_trials)} per op,"
                f" uncached range [{lo}, {hi}]"
            )
        return out


def _measure(op: str, cached: bool, config: MachineConfig) -> int:
    elf, result_addr = corpus.probe_elf(op, cached, config)
    machine = Machine(config, binary=elf)
    machine.watch_tohost(result_addr)
    machine.run()
    if machine.trap:
        raise SimError(f"probe trapped: {machine.trap}")
    if machine.tohost_value is None:
        raise SimError("probe produced no result")
    return machine.tohost_value


def run_latency_probe(config: MachineConfig, jitter: bool = True,
                      trials: int = 100) -> ProbeReport:
    # the probe touches ~150KB above the region base: shrink the machine so
    # the 100-trial jitter sweep is cheap (latencies depend only on timing
    # config and cache geometry, both untouched)
    config = dataclasses.replace(
        config,
        guest_region_size=256 * 1024,
        dram_size=2 * 1024 * 1024,
        stack_size=16 * 1024,
        check_data_values=False,
    )
    base = dataclasses.replace(
        config,
        timing=dataclasses.replace(config.timing, dram_jitter_cycles=0),
    )
    base.validate()
    cached_load = _measure("load", True, base)
    cached_store = _measure("store", True, base)
    uncached_load = _measure("load", False, base)
    uncached_store = _measure("store", False, base)

    load_trials, store_trials = [], []
    if jitter:
        config.validate()
        # each run draws its own jitter: trial t loads at seed + 2t, stores at seed + 2t + 1
        for trial in range(trials):
            seed = config.seed + 2 * trial
            load_trials.append(_measure("load", False, dataclasses.replace(config, seed=seed)))
            store_trials.append(
                _measure("store", False, dataclasses.replace(config, seed=seed + 1)))

    exec_cycles = config.timing.load_store_exec_cycles
    hit = config.timing.l15_hit_cycles
    true_hit = (cached_load - exec_cycles) / 3
    # uncached: both instruction fetches still hit the private cache
    true_load = uncached_load - exec_cycles - 2 * hit
    true_store = uncached_store - exec_cycles - 2 * hit
    return ProbeReport(
        cached_load=cached_load,
        cached_store=cached_store,
        uncached_load=uncached_load,
        uncached_store=uncached_store,
        uncached_load_trials=load_trials,
        uncached_store_trials=store_trials,
        true_hit=true_hit,
        true_uncached_load=true_load,
        true_uncached_store=true_store,
        jitter_enabled=jitter,
    )


# -- benchmarks -------------------------------------------------------------------


def run_bench(name: str, config: MachineConfig,
              trace_path: str | None = None) -> tuple[RunStats, Machine]:
    blob = corpus.bench_elf(name, config)
    machine = Machine(config, binary=blob, trace_path=trace_path)
    stats = machine.run()
    if machine.trap:
        raise SimError(f"benchmark {name} trapped: {machine.trap}")
    return stats, machine


def l15_data_miss_rate(stats: RunStats, tile: int) -> float:
    accesses = stats[f"l15.tile{tile}.data_accesses"]
    misses = stats[f"l15.tile{tile}.data_misses"]
    return misses / accesses if accesses else 0.0
