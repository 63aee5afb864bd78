"""The benchmark's seed-0 model counters, locked in tier-1: each workload of
`perfbench/run.py` runs once through its own `run_once`, with its own checks,
and its counters must equal `perfbench/golden.json`, the file the benchmark
itself compares against."""

import pytest

from runs import perfbench


@pytest.mark.parametrize("name", ["quicksort", "memwalk", "sysio"])
def test_seed0_counters_match_perfbench_golden(name):
    bench = perfbench("run")
    w = bench.workloads.make(name, bench.DEFAULT_SEED)
    run = bench.run_once(w, w.config())
    assert run["problems"] == []
    assert bench.model_counters(run["counters"]) == bench.load_golden()[name]
