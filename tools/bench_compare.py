"""Compare the benchmark of a parent commit with the working tree.

    python3 tools/bench_compare.py --parent REV --out BENCH_<pr>.json \
        [--seeds 0 1] [--workdir DIR]

Run from anywhere inside a tilesim checkout. The parent is unpacked with
`git archive REV | tar -x` into a fresh directory under --workdir, or under
a temporary directory that is removed afterwards; the change is this
checkout's working tree, uncommitted edits included. Both sides run their
own unmodified `python3 perfbench/run.py --workload W --seed N --seconds S`
as a subprocess, one at a time, with the workloads and the run length S
(`run_seconds`) that BENCHMARK.json sets. For every workload and seed it
runs PAIRS pairs, alternating which side goes first, and writes for each
end-to-end metric of BENCHMARK.json each side's median, quartiles and best,
and the number of pairs in which the change did better. Each tree's
`src/tilesim/**/*.py` line count goes in the file too, counted the same way
on both sides, and so do host facts (Python version, CPU count and model),
since the numbers mean nothing on another machine.

The shared host's speed drifts. Before each run this process times a fixed
pure-Python loop that shares no code with the simulator, and the file gives
each side's median loop time per workload and seed: a side whose loop was
slow ran on a slow host, not slow code. It is a recorded fact, not a gate.

The file also records the tier-1 test suite (ROADMAP.md's command, run
from each tree's root with that tree's `src` first on PYTHONPATH):
TIER1_PAIRS pairs, alternating which side goes first, each run with its wall
time and its count of tests by outcome, and the host loop timed before each.
This is recorded, not gated.
"""

from __future__ import annotations

import argparse
import datetime
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
LOOP_ITERATIONS = 2_000_000
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
TIER1_PAIRS = 2


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' median, quartiles and best, and how many pairs the change
    won. parent[i] and change[i] are the i-th pair; `better` is "higher" or
    "lower". A tie is not a win."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more complete pairs")
    pick = max if better == "higher" else min

    def side(samples):
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        return {"median": median, "q1": q1, "q3": q3, "best": pick(samples),
                "samples": list(samples)}

    wins = sum(1 for p, c in zip(parent, change) if c != p and pick(p, c) == c)
    return {"parent": side(parent), "change": side(change),
            "change_wins": wins, "pairs": len(parent)}


def host_loop_s() -> float:
    """Wall seconds of a fixed pure-Python integer loop: the host's speed now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def host_facts() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc, "cpu_model": model,
            "platform": platform.platform()}


def src_lines(tree: str) -> int:
    """Lines of `src/tilesim/**/*.py` in `tree`, counted as `wc -l` does."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "tilesim", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(rev: str, workdir: str) -> str:
    """Extract `rev` with git archive into a new directory; returns it."""
    tree = tempfile.mkdtemp(prefix="parent-", dir=workdir)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"bench_compare: git archive {rev} failed")
    return tree


def run_side(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"bench_compare: {' '.join(cmd)} in {tree} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def compare(trees: dict, workload: str, seed: int, seconds: float,
            metrics: list[dict]) -> dict:
    runs = {"parent": [], "change": []}
    loops = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            loops[name].append(host_loop_s())
            runs[name].append(run_side(trees[name], workload, seed, seconds))
        print(f"{workload} seed={seed} pair {i + 1}/{PAIRS}: " + ", ".join(
            f"{name} {runs[name][-1]['metrics']['guest_kips']:.1f} kIPS"
            for name in ("parent", "change")), file=sys.stderr)
    return {
        "workload": workload,
        "seed": seed,
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "host_loop_s": {name: {"median": statistics.median(samples), "samples": samples}
                        for name, samples in loops.items()},
        "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"], **summarize(
            [r["metrics"][m["name"]] for r in runs["parent"]],
            [r["metrics"][m["name"]] for r in runs["change"]], m["better"])}
            for m in metrics},
    }


def tier1_counts(summary: str) -> dict:
    """Tests by outcome from pytest's last line, as in "1 failed, 308 passed in
    40.12s"; the total is under "tests"."""
    counts = {kind: int(n) for n, kind in re.findall(
        r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed|deselected)", summary)}
    counts["tests"] = sum(n for kind, n in counts.items() if kind != "deselected")
    return counts


def run_tier1(tree: str) -> dict:
    """Wall seconds and test counts of one tier-1 run in `tree`."""
    paths = [os.path.join(tree, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True,
                          text=True)
    wall_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall_s, **tier1_counts(lines[-1] if lines else "")}


def compare_tier1(trees: dict) -> dict:
    runs = {"parent": [], "change": []}
    loops = {"parent": [], "change": []}
    for i in range(TIER1_PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            loops[name].append(host_loop_s())
            runs[name].append(run_tier1(trees[name]))
        print(f"tier-1 pair {i + 1}/{TIER1_PAIRS}: " + ", ".join(
            f"{name} {runs[name][-1]['wall_s']:.1f} s" for name in ("parent", "change")),
            file=sys.stderr)
    return {
        "command": "PYTHONPATH=src python " + " ".join(TIER1),
        "host_loop_s": {name: {"median": statistics.median(samples), "samples": samples}
                        for name, samples in loops.items()},
        "wall_s": {name: {"median": statistics.median(r["wall_s"] for r in side),
                          "samples": [r["wall_s"] for r in side]}
                   for name, side in runs.items()},
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, help="the BENCH_<pr>.json to write")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--workdir", help="where to unpack the parent (default: a temp dir)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds, metrics = bench["run_seconds"], bench["end_to_end"]
    dirty = bool(git("status", "--porcelain"))
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as tmp:
        workdir = args.workdir or tmp
        os.makedirs(workdir, exist_ok=True)
        trees = {"parent": unpack(args.parent, workdir), "change": ROOT}
        lines = {name: src_lines(tree) for name, tree in trees.items()}
        tier1 = compare_tier1(trees)
        results = [compare(trees, w["name"], seed, seconds, metrics)
                   for seed in args.seeds for w in bench["workloads"]]
    report = {
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD") + ("+uncommitted" if dirty else ""),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g}, "
                   f"{PAIRS} alternating pairs",
        "host": host_facts(),
        "src_lines": lines,
        "results": results,
        "tier1": tier1,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
