"""simctl: the command-line harness.

    simctl run --binary P [--config C] [--stats-out F] [--trace F] [--sandbox D]
    simctl test-rv32ui [--dir D] [--config C]
    simctl latency-probe [--no-jitter] [--trials N] [--config C]
    simctl bench {hanoi,binsearch,quicksort} [--config C] [--stats-out F] [--trace F]
    simctl litmus {mp,mp-same-line,sb,corr}
    simctl assemble SRC [SRC...] -o OUT [--base ADDR] [--define NAME=VALUE ...]

Exit status: the guest's exit code for `run`; 0/1 for the suites. Failed runs
print a diagnostic naming the pipeline step that broke (0 arguments, 2 load)
and exit 1, as does any other simulator error; a bad config fails before the
run, with exit status 2.
"""

from __future__ import annotations

import argparse
import sys

from . import corpus
from .asm import assemble
from .config import MachineConfig, load_config
from .elf import program_to_elf
from .errors import ConfigError, LoadError, SimError
from .harness import l15_data_miss_rate, run_bench, run_isa_suite, run_latency_probe
from .litmus import TESTS, run_litmus
from .machine import Machine


def _fail(message: str, code: int = 1):
    print(f"simctl: {message}", file=sys.stderr)
    sys.exit(code)


def _emit(stream, data: bytes):
    buffer = getattr(stream, "buffer", None)
    if buffer is not None:
        buffer.write(data)
        buffer.flush()
    else:  # redirected to a text stream (tests)
        stream.write(data.decode("utf-8", "replace"))


def _load_cfg(args) -> MachineConfig:
    try:
        cfg = load_config(getattr(args, "config", None))
        if getattr(args, "seed", None) is not None:
            cfg.seed = args.seed
            cfg.validate()
        return cfg
    except ConfigError as err:
        _fail(f"config error: {err}", 2)


def _write_stats(stats, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(stats.to_json())


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    try:
        with open(args.binary, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        _fail(f"step 0: cannot read binary: {err}")
    machine = Machine(cfg, binary=blob, sandbox_dir=args.sandbox, trace_path=args.trace)
    stats = machine.run()
    _emit(sys.stdout, bytes(machine.stdout_data))
    _emit(sys.stderr, bytes(machine.stderr_data))
    _write_stats(stats, args.stats_out)
    if machine.trap:
        _fail(f"guest trapped: {machine.trap}")
    return machine.exit_status or 0


def cmd_test_rv32ui(args) -> int:
    cfg = _load_cfg(args)
    try:
        report = run_isa_suite(cfg, suite_dir=args.dir)
    except OSError as err:
        _fail(f"cannot read suite directory: {err}")
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def cmd_latency_probe(args) -> int:
    cfg = _load_cfg(args)
    report = run_latency_probe(cfg, jitter=not args.no_jitter, trials=args.trials)
    for line in report.lines():
        print(line)
    return 0


def cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    stats, machine = run_bench(args.name, cfg, trace_path=args.trace)
    _emit(sys.stdout, bytes(machine.stdout_data))
    rate = l15_data_miss_rate(stats, cfg.guest_tile())
    print(f"cycles={stats['total_cycles']} instructions={stats['guest_instructions']}"
          f" l15_data_miss_rate={rate:.6f}")
    _write_stats(stats, args.stats_out)
    return 0


def cmd_litmus(args) -> int:
    report = run_litmus(args.name)
    print(f"{report['name']}: {report['description']}")
    print(f"interleavings explored: {report['interleavings']}")
    for outcome in report["outcomes"]:
        print(f"  observed {outcome}")
    print(f"forbidden outcomes seen: {report['forbidden_count']}")
    return 0 if report["forbidden_count"] == 0 else 1


def cmd_assemble(args) -> int:
    defines = {}
    for item in args.define or []:
        name, _, value = item.partition("=")
        if not _:
            _fail(f"--define needs NAME=VALUE, got {item!r}", 2)
        try:
            defines[name] = int(value, 0)
        except ValueError:
            _fail(f"--define value {value!r} is not an integer", 2)
    cfg = _load_cfg(args)
    sources = []
    if args.runtime:
        defines = {**corpus.standard_defines(cfg), **defines}
        sources.append((corpus.read_source("runtime.s")))
    try:
        for path in args.sources:
            with open(path, "r", encoding="utf-8") as fh:
                sources.append(fh.read())
    except OSError as err:
        _fail(str(err))
    program = assemble(sources, base=args.base if args.base is not None else cfg.guest_base,
                       defines=defines)
    blob = program_to_elf(program)
    with open(args.output, "wb") as fh:
        fh.write(blob)
    print(f"wrote {args.output}: {len(blob)} bytes, entry 0x{program.entry:08x}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simctl", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, stats=True, trace=False):
        p.add_argument("--config", help="machine config JSON (defaults built in)")
        p.add_argument("--seed", type=int, help="override the config seed")
        if stats:
            p.add_argument("--stats-out", help="write run statistics JSON here")
        if trace:
            p.add_argument("--trace", help="write the event trace here")

    p = sub.add_parser("run", help="load and run a static RV32 binary")
    p.add_argument("--binary", required=True)
    p.add_argument("--sandbox", default=None, help="directory for file syscalls")
    common(p, trace=True)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("test-rv32ui", help="run the ISA test suite (tohost convention)")
    p.add_argument("--dir", help="directory of test ELFs (default: bundled suite)")
    common(p, stats=False)
    p.set_defaults(fn=cmd_test_rv32ui)

    p = sub.add_parser("latency-probe", help="measure memory-hierarchy latencies")
    p.add_argument("--no-jitter", action="store_true")
    p.add_argument("--trials", type=int, default=100, help="jitter trials per op")
    common(p, stats=False)
    p.set_defaults(fn=cmd_latency_probe)

    p = sub.add_parser("bench", help="run a microbenchmark")
    p.add_argument("name", choices=sorted(corpus.BENCH_NAMES))
    common(p, trace=True)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("litmus", help="explore a litmus test exhaustively")
    p.add_argument("name", choices=sorted(TESTS))
    p.set_defaults(fn=cmd_litmus)

    p = sub.add_parser("assemble", help="assemble RV32I sources into a static ELF")
    p.add_argument("sources", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--base", type=lambda s: int(s, 0), default=None)
    p.add_argument("--define", action="append", metavar="NAME=VALUE")
    p.add_argument("--runtime", action="store_true",
                   help="prepend the guest runtime (crt0 + syscall stubs)")
    common(p, stats=False)
    p.set_defaults(fn=cmd_assemble)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LoadError as err:
        _fail(f"step 2: {err}")
    except SimError as err:
        _fail(str(err))


if __name__ == "__main__":
    sys.exit(main())
