"""Microbenchmark corpus: functional results, the working-set miss-rate
ordering, and the full-corpus trace replay against the flat-memory oracle."""

import dataclasses
import re

import pytest

import flat_oracle
from tilesim.config import MachineConfig
from tilesim.harness import l15_data_miss_rate, run_bench
from test_golden import corpus_digests, load_golden


@pytest.fixture(scope="module")
def config():
    cfg = MachineConfig()
    cfg.validate()
    return cfg


@pytest.fixture(scope="module")
def bench_runs(config, tmp_path_factory):
    """Run the whole corpus once with tracing; reused by several tests."""
    tmp = tmp_path_factory.mktemp("bench")
    runs = {}
    for name in ("hanoi", "binsearch", "quicksort"):
        trace_path = str(tmp / f"{name}.trace")
        stats, machine = run_bench(name, config, trace_path=trace_path)
        runs[name] = (stats, bytes(machine.stdout_data), trace_path)
    return runs


def test_hanoi_exactly_127_moves(bench_runs):
    _, stdout, _ = bench_runs["hanoi"]
    assert stdout == b"moves=127\n"  # 2^7 - 1


def test_binsearch_finds_all_keys_within_probe_bound(bench_runs):
    _, stdout, _ = bench_runs["binsearch"]
    m = re.fullmatch(rb"found=(\d+) probes=(\d+)\n", stdout)
    assert m, stdout
    found, probes = int(m.group(1)), int(m.group(2))
    assert found == 10
    assert probes <= 140  # 10 keys x ceil(log2(10000))


def test_quicksort_sorts(bench_runs):
    _, stdout, _ = bench_runs["quicksort"]
    assert stdout == b"sorted=1\n"


def test_working_set_effect_on_miss_rates(bench_runs, config):
    """binsearch's 40KB working set exceeds the 8KB private cache; hanoi's
    fits. The miss-rate ordering (at least 5x) is the acceptance bar."""
    tile = config.guest_tile()
    binsearch = l15_data_miss_rate(bench_runs["binsearch"][0], tile)
    hanoi = l15_data_miss_rate(bench_runs["hanoi"][0], tile)
    assert hanoi > 0
    assert binsearch >= 5 * hanoi, f"binsearch {binsearch:.4f} vs hanoi {hanoi:.4f}"


def test_quicksort_behaves_like_hanoi_not_binsearch(bench_runs, config):
    tile = config.guest_tile()
    quicksort = l15_data_miss_rate(bench_runs["quicksort"][0], tile)
    binsearch = l15_data_miss_rate(bench_runs["binsearch"][0], tile)
    assert quicksort < binsearch


def test_full_corpus_traces_replay_with_zero_mismatches(bench_runs):
    for name, (_, _, trace_path) in bench_runs.items():
        checked, loads = flat_oracle.replay_file(trace_path)
        assert loads > 1000, f"{name}: suspiciously small trace"


def test_bench_determinism(config):
    a, _ = run_bench("quicksort", config)
    b, _ = run_bench("quicksort", config)
    assert a.to_json() == b.to_json()


def test_seed_changes_binsearch_keys(config):
    import dataclasses

    cfg2 = dataclasses.replace(config, seed=99)
    cfg2.validate()
    _, m1 = run_bench("binsearch", config)
    _, m2 = run_bench("binsearch", cfg2)
    out1, out2 = bytes(m1.stdout_data), bytes(m2.stdout_data)
    assert out1.startswith(b"found=10")
    assert out2.startswith(b"found=10")
    # probe counts differ for different key sets (overwhelmingly likely)
    assert out1 != out2


@pytest.mark.parametrize("seed", [0, 99])
def test_corpus_matches_golden(seed, request, config, tmp_path):
    golden = load_golden("corpus.json")[str(seed)]
    if seed == 0:
        runs = request.getfixturevalue("bench_runs")
    else:
        cfg = dataclasses.replace(config, seed=seed)
        cfg.validate()
        runs = {}
        for name in golden:
            trace_path = str(tmp_path / f"{name}.trace")
            stats, machine = run_bench(name, cfg, trace_path=trace_path)
            runs[name] = (stats, bytes(machine.stdout_data), trace_path)
    assert {name: corpus_digests(*runs[name]) for name in golden} == golden
