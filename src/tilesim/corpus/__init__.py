"""Guest program corpus: shipped assembly sources plus on-demand builders.

Everything the guest runs is assembled here from the .s files next to this
module (there is no cross-toolchain in the environment): the hello-world
binary, the three microbenchmarks, the memory-latency probe programs and the
ISA test suite (see rv32ui.py). Programs are linked at the guest region base
with the mailbox/stack layout baked in as assemble-time constants.
"""

from __future__ import annotations

import importlib.resources

from ..asm import assemble
from ..config import MachineConfig
from ..elf import program_to_elf
from ..errors import SimError

HANOI_HEIGHT = 7
BINSEARCH_N = 10_000
BINSEARCH_KEYS = 10
QSORT_N = 100

BENCH_NAMES = ("hanoi", "binsearch", "quicksort")

# scratch array well past any program image, far below the stack
ARRAY_OFFSET = 0x0002_0000


def read_source(name: str) -> str:
    return (importlib.resources.files(__package__) / name).read_text(encoding="utf-8")


def standard_defines(config: MachineConfig) -> dict[str, int]:
    mailbox = config.region.mailbox_addr
    seed = config.seed or 0x9E3779B9  # xorshift32 state must be nonzero
    return {
        "MAILBOX_BASE": mailbox,
        "STACK_TOP": mailbox,
        "GUEST_SEED": seed & 0xFFFFFFFF,
    }


def build_program(sources: list[str], config: MachineConfig,
                  extra: dict[str, int] | None = None) -> bytes:
    defines = standard_defines(config)
    defines.update(extra or {})
    return program_to_elf(assemble(sources, base=config.guest_base, defines=defines))


def hello_elf(config: MachineConfig) -> bytes:
    return build_program([read_source("runtime.s"), read_source("hello.s")], config)


def bench_elf(name: str, config: MachineConfig) -> bytes:
    if name not in BENCH_NAMES:
        raise SimError(f"unknown benchmark {name!r} (have {', '.join(BENCH_NAMES)})")
    extra = {
        "ARRAY_BASE": config.guest_base + ARRAY_OFFSET,
        "HANOI_HEIGHT": HANOI_HEIGHT,
        "BINSEARCH_N": BINSEARCH_N,
        "BINSEARCH_KEYS": BINSEARCH_KEYS,
        "QSORT_N": QSORT_N,
    }
    return build_program([read_source("runtime.s"), read_source(f"{name}.s")], config, extra)


_PROBE_TEMPLATE = """
_start:
    li   sp, STACK_TOP
    li   t0, WARM_TARGET
    li   t1, MEASURE_TARGET
    mv   a2, t0                 # pass 1 warms the probe's instruction lines
    jal  ra, probe_once         # (and, for the cached case, the target line)
    mv   a2, t1                 # pass 2 is the measurement
    jal  ra, probe_once
    li   t2, RESULT_ADDR
    sw   a0, 0(t2)              # the run ends when this word is written
probe_halt:
    j    probe_halt

    .balign 16
probe_once:                     # a2 = target address; returns the cycle delta
    rdcycle a3
    {op}
    rdcycle a5
    sub  a0, a5, a3
    ret
"""

PROBE_OPS = {"load": "lw   a4, 0(a2)", "store": "sw   a4, 0(a2)"}


def probe_elf(op: str, cached: bool, config: MachineConfig) -> tuple[bytes, int]:
    """Build one latency-probe binary; returns (elf, result address).

    Cached mode measures the address the warm pass touched; uncached mode
    measures a line nothing has ever touched (not in any cache, not in L2).
    """
    if op not in PROBE_OPS:
        raise SimError(f"probe op must be load or store, not {op!r}")
    warm = config.guest_base + ARRAY_OFFSET
    measure = warm if cached else warm + 0x1000
    result = warm + 0x2000
    source = _PROBE_TEMPLATE.format(op=PROBE_OPS[op])
    extra = {"WARM_TARGET": warm, "MEASURE_TARGET": measure, "RESULT_ADDR": result}
    return build_program([source], config, extra), result
