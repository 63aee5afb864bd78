"""simctl command-line behavior: exit codes, diagnostics, deterministic stats."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tilesim import corpus
from tilesim.asm import assemble
from tilesim.cli import main
from tilesim.config import MachineConfig, load_config
from tilesim.elf import program_to_elf
from tilesim.errors import ConfigError


@pytest.fixture(scope="module")
def hello_path(tmp_path_factory):
    cfg = MachineConfig()
    cfg.validate()
    path = tmp_path_factory.mktemp("bin") / "hello.elf"
    path.write_bytes(corpus.hello_elf(cfg))
    return str(path)


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def test_run_hello(hello_path, tmp_path, capsys):
    code = run_cli(["run", "--binary", hello_path, "--sandbox", str(tmp_path)])
    assert code == 0
    assert "hello" in capsys.readouterr().out


def test_run_missing_binary_names_step_0(capsys):
    code = run_cli(["run", "--binary", "/does/not/exist.elf"])
    assert code == 1
    assert "step 0" in capsys.readouterr().err


def test_run_bad_elf_names_step_2(tmp_path, capsys):
    bad = tmp_path / "bad.elf"
    bad.write_bytes(b"garbage")
    code = run_cli(["run", "--binary", str(bad)])
    assert code == 1
    assert "step 2" in capsys.readouterr().err


def test_run_stats_json_deterministic(hello_path, tmp_path):
    outs = []
    for i in range(2):
        stats_path = tmp_path / f"stats{i}.json"
        code = run_cli(["run", "--binary", hello_path, "--sandbox", str(tmp_path),
                        "--stats-out", str(stats_path)])
        assert code == 0
        outs.append(stats_path.read_bytes())
    assert outs[0] == outs[1]
    parsed = json.loads(outs[0])
    assert parsed["exit_status"] == 0
    assert parsed["schema_version"] == 1


def test_config_file_round_trip(hello_path, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"poll_interval": 10, "seed": 3}))
    code = run_cli(["run", "--binary", hello_path, "--sandbox", str(tmp_path),
                    "--config", str(cfg_path)])
    assert code == 0
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"no_such_key": 1}))
    code = run_cli(["run", "--binary", hello_path, "--config", str(bad_cfg)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, key",
    [
        ({"poll_interval": "5"}, "poll_interval"),
        ({"poll_interval": 5.0}, "poll_interval"),
        ({"timing": {"alu_cycles": None}}, "timing.alu_cycles"),
        ({"cache": {"l2_associativity": True}}, "cache.l2_associativity"),
        ({"tiles": 5}, "tiles"),
        ({"tiles": ["host-agent", 7]}, "tiles"),
        ({"seed": "x"}, "seed"),
        ({"check_data_values": "no"}, "check_data_values"),
        ({"check_data_values": 0}, "check_data_values"),
    ],
)
def test_config_value_of_wrong_json_type_names_its_key(tmp_path, data, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be "):
        load_config(str(cfg_path))


def test_run_with_mistyped_config_exits_2(hello_path, tmp_path, capsys):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"timing": {"alu_cycles": None}}))
    code = run_cli(["run", "--binary", hello_path, "--config", str(bad_cfg)])
    assert code == 2
    assert "config error: timing.alu_cycles" in capsys.readouterr().err


def test_readme_config_example_loads(tmp_path):
    """The README's configuration example names only keys load_config knows."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    start = section.index("\n    {\n") + 1
    end = section.index("\n    }\n", start) + len("\n    }")
    cfg_path = tmp_path / "readme.json"
    cfg_path.write_text(section[start:end])
    assert load_config(str(cfg_path)) == MachineConfig()


def test_run_seed_overrides_the_config_seed(hello_path, tmp_path, runs):
    cfg_path = tmp_path / "seed7.json"
    cfg_path.write_text(json.dumps({"seed": 7}))
    stats = []
    for args in (["--seed", "7"], ["--config", str(cfg_path)]):
        out = tmp_path / "stats.json"
        assert run_cli(["run", "--binary", hello_path, "--sandbox", str(tmp_path),
                        "--stats-out", str(out), *args]) == 0
        stats.append(out.read_text())
    assert stats[0] == stats[1]
    assert stats[0] != runs("hello").stats  # seed 7 draws other DRAM jitter than seed 0


def test_trapped_run_exits_1(tmp_path, capsys):
    cfg = MachineConfig()
    binary = tmp_path / "trap.elf"
    binary.write_bytes(program_to_elf(assemble("_start: ecall", base=cfg.guest_base)))
    code = run_cli(["run", "--binary", str(binary), "--sandbox", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("simctl: guest trapped: ")


def test_bench_past_the_cycle_limit_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "limit.json"
    cfg_path.write_text(json.dumps({"sim_cycle_limit": 1000}))
    code = run_cli(["bench", "hanoi", "--config", str(cfg_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("simctl: cycle limit 1000 exceeded")


def test_latency_probe_no_jitter(capsys):
    code = run_cli(["latency-probe", "--no-jitter"])
    assert code == 0
    out = capsys.readouterr().out
    assert "17" in out and "113" in out
    assert "= 4" in out  # derived true hit


def test_test_rv32ui_bundled(capsys):
    code = run_cli(["test-rv32ui"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failed" in out


def test_test_rv32ui_empty_dir_nonzero(tmp_path, capsys):
    code = run_cli(["test-rv32ui", "--dir", str(tmp_path)])
    assert code == 1
    assert "0 passed" in capsys.readouterr().out


def test_bench_cli(capsys):
    code = run_cli(["bench", "hanoi"])
    assert code == 0
    out = capsys.readouterr().out
    assert "moves=127" in out
    assert "l15_data_miss_rate=" in out


def test_litmus_cli(capsys):
    code = run_cli(["litmus", "mp"])
    assert code == 0
    out = capsys.readouterr().out
    assert "forbidden outcomes seen: 0" in out


def test_assemble_cli(tmp_path, capsys):
    src = tmp_path / "t.s"
    src.write_text("_start: nop\n j _start\n")
    out_path = tmp_path / "t.elf"
    code = run_cli(["assemble", str(src), "-o", str(out_path)])
    assert code == 0
    blob = out_path.read_bytes()
    assert blob[:4] == b"\x7fELF"


def test_assemble_cli_bad_source_exits_1(tmp_path, capsys):
    src = tmp_path / "bad.s"
    src.write_text("_start: nop\n li a0, 1/0\n")
    code = run_cli(["assemble", str(src), "-o", str(tmp_path / "bad.elf")])
    assert code == 1
    assert capsys.readouterr().err.startswith("simctl: line 2: ")
    assert not (tmp_path / "bad.elf").exists()


def test_console_script_entry_point(hello_path, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "tilesim.cli", "run", "--binary", hello_path,
         "--sandbox", str(tmp_path)],
        capture_output=True,
    )
    assert result.returncode == 0
    assert b"hello" in result.stdout
