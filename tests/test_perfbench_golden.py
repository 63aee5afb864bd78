"""The benchmark's seed-0 model counters, locked in tier-1: each workload of
`perfbench/run.py` runs once through its own `run_once`, with its own checks,
and its counters must equal `perfbench/golden.json`, the file the benchmark
itself compares against."""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        yield run


@pytest.mark.parametrize("name", ["quicksort", "memwalk", "sysio"])
def test_seed0_counters_match_perfbench_golden(perfbench, name):
    w = perfbench.workloads.make(name, perfbench.DEFAULT_SEED)
    run = perfbench.run_once(w, w.config())
    assert run["problems"] == []
    assert perfbench.model_counters(run["counters"]) == perfbench.load_golden()[name]
