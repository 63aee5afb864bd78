"""The three benchmark workloads: guest program, seeded inputs and output checks.

Every workload is built with `tilesim.corpus.build_program` on top of the stock
runtime. `quicksort` is the corpus program with a larger array; `memwalk` and
`sysio` are the guest sources next to this file. A workload's inputs (the
guest's xorshift seed and, for `sysio`, the bytes of in.dat) come only from
the benchmark seed, and the expected guest output is computed here
independently of the simulator.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass

from tilesim import corpus
from tilesim.config import MachineConfig

HERE = os.path.dirname(os.path.abspath(__file__))

NAMES = ("quicksort", "memwalk", "sysio")

M32 = 0xFFFFFFFF

QSORT_N = 150

# Region A exceeds the 8 KB private cache and fits the 128 KB aggregate L2.
# Region B is 1.25x the aggregate L2: with 4-way LRU sets every set sees five
# lines per pass, so every access to B misses to DRAM.
MEMWALK_L2_BYTES = 16 * 1024
MEMWALK_DRAM_BYTES = 160 * 1024
MEMWALK_ROUNDS = 1
MEMWALK_LINE = 16

SYSIO_IN_BYTES = 4096
SYSIO_CHUNK = 512
SYSIO_ROUNDS = 3


def fold(h: int, value: int) -> int:
    """The guests' checksum step: h = h*31 + value (mod 2^32)."""
    return (h * 31 + value) & M32


@dataclass
class Workload:
    name: str
    seed: int
    defines: dict[str, int]
    guest_source: str  # file name: in the corpus for quicksort, here otherwise
    expected_stdout: bytes
    in_data: bytes | None = None  # sysio: the bytes of in.dat

    def config(self) -> MachineConfig:
        return MachineConfig(seed=self.seed)

    def sources(self) -> list[str]:
        if self.name == "quicksort":
            guest = corpus.read_source(self.guest_source)
        else:
            with open(os.path.join(HERE, self.guest_source), encoding="utf-8") as fh:
                guest = fh.read()
        return [corpus.read_source("runtime.s"), guest]

    def build(self, config: MachineConfig) -> bytes:
        return corpus.build_program(self.sources(), config, self.defines)

    def make_sandbox(self, path: str) -> str | None:
        """A fresh sandbox holding in.dat (sysio only); None means no files."""
        if self.in_data is None:
            return None
        os.makedirs(path)
        with open(os.path.join(path, "in.dat"), "wb") as fh:
            fh.write(self.in_data)
        return path

    def check(self, machine, sandbox: str | None) -> list[str]:
        """Everything wrong with one finished run; empty when it is correct."""
        problems = []
        if machine.trap is not None:
            problems.append(f"guest trapped: {machine.trap}")
        if machine.exit_status != 0:
            problems.append(f"exit status {machine.exit_status}")
        stdout = bytes(machine.stdout_data)
        if stdout != self.expected_stdout:
            problems.append(f"stdout {stdout!r}, expected {self.expected_stdout!r}")
        if sandbox is not None:
            try:
                with open(os.path.join(sandbox, "out.dat"), "rb") as fh:
                    out = fh.read()
            except OSError as err:
                problems.append(f"out.dat unreadable: {err}")
            else:
                if out != self.in_data * SYSIO_ROUNDS:
                    problems.append(f"out.dat is {len(out)} bytes and differs from"
                                    f" {SYSIO_ROUNDS} copies of in.dat")
        return problems


def remove_sandbox(path: str | None):
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


def _guest_seed(rng: random.Random) -> int:
    return rng.getrandbits(32) or 1  # xorshift32 state must be nonzero


def make(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    base = {"ARRAY_BASE": MachineConfig().guest_base + corpus.ARRAY_OFFSET}
    gseed = _guest_seed(rng)
    if name == "quicksort":
        return Workload(name, seed, {**base, "QSORT_N": QSORT_N, "GUEST_SEED": gseed},
                        "quicksort.s", b"sorted=1\n")
    if name == "memwalk":
        h, v, step = 0, gseed, gseed | 1
        for _ in range(MEMWALK_ROUNDS):
            for size in (MEMWALK_L2_BYTES, MEMWALK_DRAM_BYTES):
                for _ in range(size // MEMWALK_LINE):  # store pass, then load pass
                    h = fold(h, v)
                    v = (v + step) & M32
        defines = {**base, "GUEST_SEED": gseed, "MEMWALK_L2_BYTES": MEMWALK_L2_BYTES,
                   "MEMWALK_DRAM_BYTES": MEMWALK_DRAM_BYTES, "MEMWALK_ROUNDS": MEMWALK_ROUNDS}
        return Workload(name, seed, defines, "memwalk.s", b"memwalk=%d\n" % h)
    if name == "sysio":
        in_data = rng.randbytes(SYSIO_IN_BYTES)
        h = 0
        for _ in range(SYSIO_ROUNDS):
            for byte in in_data:
                h = fold(h, byte)
        defines = {**base, "GUEST_SEED": gseed, "SYSIO_CHUNK": SYSIO_CHUNK,
                   "SYSIO_ROUNDS": SYSIO_ROUNDS}
        return Workload(name, seed, defines, "sysio.s",
                        b"sysio=%d size=%d\n" % (h, SYSIO_IN_BYTES), in_data)
    raise ValueError(f"unknown workload {name!r} (have {', '.join(NAMES)})")
