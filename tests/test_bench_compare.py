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

    def fake_run(tree, workload, seed, seconds, trace=False):
        events.append(tree + " traced" if trace else tree)
        return {"correct": True, "failed": 0,
                "metrics": {"guest_kips": 100.0 if tree == "p" else 110.0}}

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
    assert events[-2:] == ["p traced", "c traced"]  # after the pairs; no loop timed


def test_each_side_makes_one_traced_run_recorded_and_gating_correct(tool, monkeypatch):
    calls = []

    def fake_run(tree, workload, seed, seconds, trace=False):
        calls.append((tree, workload, seed, seconds, trace))
        if trace:
            return {"correct": tree == "p", "failed": int(tree == "c"),
                    "metrics": {"mem.cache.lookup.calls": 10 if tree == "p" else 4}}
        return {"correct": True, "failed": 0, "metrics": {"guest_kips": 100.0}}

    monkeypatch.setattr(tool, "host_loop_s", lambda: 0.1)
    monkeypatch.setattr(tool, "run_side", fake_run)
    metric = {"name": "guest_kips", "unit": "kIPS", "better": "higher"}
    result = tool.compare({"parent": "p", "change": "c"}, "memwalk", 1, 30, [metric])

    traced_calls = [c for c in calls if c[4]]
    assert traced_calls == [("p", "memwalk", 1, 30, True), ("c", "memwalk", 1, 30, True)]
    assert len(calls) == 2 * tool.PAIRS + 2
    assert result["traced"]["parent"] == {"correct": True, "failed": 0,
                                          "metrics": {"mem.cache.lookup.calls": 10}}
    assert result["traced"]["change"]["failed"] == 1
    assert result["all_correct"] is False  # the change's traced run failed its checks


def test_a_side_runs_perfbench_with_the_trace_switch(tool, monkeypatch):
    seen = []

    class Done:
        returncode = 0
        stdout = '{"correct": true, "failed": 0, "metrics": {"x": {"value": 2, "unit": "s"}}}\n'
        stderr = ""

    def fake_run(cmd, **kwargs):
        seen.append((cmd, kwargs["cwd"]))
        return Done()

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    assert tool.run_side("tree", "sysio", 0, 30, trace=True) == {
        "correct": True, "failed": 0, "metrics": {"x": 2}}
    tool.run_side("tree", "sysio", 0, 30)
    (traced, cwd), (untraced, _) = seen
    assert cwd == "tree" and traced[1:] == [
        "perfbench/run.py", "--workload", "sysio", "--seed", "0", "--seconds", "30", "--trace", "1"]
    assert untraced[-2:] == ["--trace", "0"]


def test_host_loop_takes_measurable_time(tool):
    assert tool.host_loop_s() > 0.0


def test_tier1_counts_read_pytest_summary_line(tool):
    assert tool.tier1_counts("314 passed in 29.84s") == {"passed": 314, "tests": 314}
    assert tool.tier1_counts("1 failed, 308 passed, 2 deselected in 40.12s") == {
        "failed": 1, "passed": 308, "deselected": 2, "tests": 309}
    assert tool.tier1_counts("") == {"tests": 0}


def test_tier1_runs_alternate_and_keep_each_side_s_wall_time_and_counts(tool, monkeypatch):
    events = []
    loop_s = iter(range(1, 2 * tool.TIER1_PAIRS + 1))

    def fake_loop():
        events.append("loop")
        return float(next(loop_s))

    def fake_tier1(tree):
        events.append(tree)
        return {"wall_s": 40.0 if tree == "p" else 30.0, "passed": 309, "tests": 309}

    monkeypatch.setattr(tool, "host_loop_s", fake_loop)
    monkeypatch.setattr(tool, "run_tier1", fake_tier1)
    result = tool.compare_tier1({"parent": "p", "change": "c"})

    assert events == ["loop", "p", "loop", "c", "loop", "c", "loop", "p"][:4 * tool.TIER1_PAIRS]
    assert result["host_loop_s"]["parent"]["samples"] == [1.0, 4.0][:tool.TIER1_PAIRS]
    assert result["wall_s"]["parent"] == {"median": 40.0, "samples": [40.0] * tool.TIER1_PAIRS}
    assert result["wall_s"]["change"]["median"] == 30.0
    assert [r["tests"] for r in result["runs"]["change"]] == [309] * tool.TIER1_PAIRS
