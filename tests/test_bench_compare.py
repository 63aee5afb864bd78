"""The summary, the host-speed loop and the src size that
tools/bench_compare.py writes into BENCH_<pr>.json."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_a_higher_is_better_metric(tool):
    parent = [50.0, 52.0, 48.0, 51.0, 49.0]
    change = [101.0, 99.0, 100.0, 51.0, 102.0]  # pair 4 is a tie
    s = tool.summarize(parent, change, "higher")
    assert s["pairs"] == 5
    assert s["change_wins"] == 4
    assert s["parent"]["median"] == 50.0
    assert (s["parent"]["q1"], s["parent"]["q3"]) == (49.0, 51.0)
    assert s["parent"]["best"] == 52.0
    assert s["change"]["median"] == 100.0 and s["change"]["best"] == 102.0
    assert s["change"]["samples"] == change


def test_summary_of_a_lower_is_better_metric(tool):
    s = tool.summarize([1.0, 1.2, 0.9, 1.1], [0.5, 1.3, 0.4, 0.6], "lower")
    assert s["change_wins"] == 3
    assert s["parent"]["best"] == 0.9 and s["change"]["best"] == 0.4
    assert s["parent"]["median"] == pytest.approx(1.05)
    assert s["change"]["median"] == pytest.approx(0.55)


def test_summary_needs_complete_pairs(tool):
    with pytest.raises(ValueError):
        tool.summarize([1.0, 2.0], [1.0], "higher")
    with pytest.raises(ValueError):
        tool.summarize([1.0], [2.0], "higher")


def test_src_lines_counts_every_package_module_and_nothing_else(tool, tmp_path):
    pkg = tmp_path / "src" / "tilesim"
    (pkg / "mem").mkdir(parents=True)
    (pkg / "__init__.py").write_text("a\nb\nc\n")
    (pkg / "mem" / "cache.py").write_text("x\ny")  # no final newline: 1 line, as wc -l
    (pkg / "corpus.s").write_text("not python\n")
    (tmp_path / "src" / "other.py").write_text("outside the package\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text("t\n")
    assert tool.src_lines(str(tmp_path)) == 4


def test_host_loop_is_timed_before_every_run_and_its_median_kept_per_side(tool, monkeypatch):
    events = []
    loop_s = iter(range(1, 2 * tool.PAIRS + 1))

    def fake_loop():
        events.append("loop")
        return float(next(loop_s))

    def fake_run(tree, workload, seed, seconds):
        events.append(tree)
        return {"correct": True, "metrics": {"guest_kips": 100.0 if tree == "p" else 110.0}}

    monkeypatch.setattr(tool, "host_loop_s", fake_loop)
    monkeypatch.setattr(tool, "run_side", fake_run)
    metric = {"name": "guest_kips", "unit": "kIPS", "better": "higher"}
    result = tool.compare({"parent": "p", "change": "c"}, "quicksort", 0, 30, [metric])

    assert events[:8] == ["loop", "p", "loop", "c", "loop", "c", "loop", "p"]
    loops = result["host_loop_s"]
    # pair i draws loop times 2i+1 and 2i+2; the parent goes first in even pairs
    assert loops["parent"]["samples"] == [1.0, 4.0, 5.0, 8.0, 9.0, 12.0, 13.0, 16.0, 17.0, 20.0]
    assert loops["change"]["samples"] == [2.0, 3.0, 6.0, 7.0, 10.0, 11.0, 14.0, 15.0, 18.0, 19.0]
    assert (loops["parent"]["median"], loops["change"]["median"]) == (10.5, 10.5)
    assert result["metrics"]["guest_kips"]["change_wins"] == tool.PAIRS


def test_host_loop_takes_measurable_time(tool):
    assert tool.host_loop_s() > 0.0
