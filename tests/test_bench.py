"""Microbenchmark corpus: functional results, the working-set miss-rate
ordering, the full-corpus trace replay against the flat-memory oracle,
determinism, and the corpus goldens. Every corpus run but the determinism pair
comes from the session's run table (runs.py)."""

import re

import pytest

import flat_oracle
from tilesim import corpus
from tilesim.config import MachineConfig
from tilesim.harness import l15_data_miss_rate, run_bench
from test_golden import load_golden, run_digests


def test_hanoi_exactly_127_moves(runs):
    assert runs("hanoi", traced=True).stdout == b"moves=127\n"  # 2^7 - 1


def test_binsearch_finds_all_keys_within_probe_bound(runs):
    stdout = runs("binsearch", traced=True).stdout
    m = re.fullmatch(rb"found=(\d+) probes=(\d+)\n", stdout)
    assert m, stdout
    found, probes = int(m.group(1)), int(m.group(2))
    assert found == 10
    assert probes <= 140  # 10 keys x ceil(log2(10000))


def test_quicksort_sorts(runs):
    assert runs("quicksort", traced=True).stdout == b"sorted=1\n"


def test_working_set_effect_on_miss_rates(runs):
    """binsearch's 40KB working set exceeds the 8KB private cache; hanoi's
    fits. The miss-rate ordering (at least 5x) is the acceptance bar."""
    tile = MachineConfig().guest_tile()
    binsearch = l15_data_miss_rate(runs("binsearch", traced=True).counters, tile)
    hanoi = l15_data_miss_rate(runs("hanoi", traced=True).counters, tile)
    assert hanoi > 0
    assert binsearch >= 5 * hanoi, f"binsearch {binsearch:.4f} vs hanoi {hanoi:.4f}"


def test_quicksort_behaves_like_hanoi_not_binsearch(runs):
    tile = MachineConfig().guest_tile()
    quicksort = l15_data_miss_rate(runs("quicksort", traced=True).counters, tile)
    binsearch = l15_data_miss_rate(runs("binsearch", traced=True).counters, tile)
    assert quicksort < binsearch


def test_full_corpus_traces_replay_with_zero_mismatches(runs):
    for name in corpus.BENCH_NAMES:
        # raises on any mismatch
        _, loads = flat_oracle.replay_file(str(runs(name, traced=True).trace))
        assert loads > 1000, f"{name}: suspiciously small trace"


def test_bench_determinism():
    a, _ = run_bench("quicksort", MachineConfig())
    b, _ = run_bench("quicksort", MachineConfig())
    assert a.to_json() == b.to_json()


def test_seed_changes_binsearch_keys(runs):
    out1, out2 = runs("binsearch", 0).stdout, runs("binsearch", 99).stdout
    assert out1.startswith(b"found=10")
    assert out2.startswith(b"found=10")
    # probe counts differ for different key sets (overwhelmingly likely)
    assert out1 != out2


@pytest.mark.parametrize("seed", [0, 99])
def test_corpus_matches_golden(seed, runs):
    golden = load_golden("corpus.json")[str(seed)]
    assert {name: run_digests(runs(name, seed, traced=True)) for name in golden} == golden
