import pytest

from runs import RunTable
from tilesim.config import MachineConfig
from tilesim.harness import run_isa_suite, run_latency_probe


@pytest.fixture
def config():
    """The default machine config."""
    cfg = MachineConfig()
    cfg.validate()
    return cfg


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    """The session's run table (see runs.py)."""
    return RunTable(tmp_path_factory.mktemp("runs"))


@pytest.fixture(scope="session")
def isa_suite_report():
    """The bundled rv32ui suite's report on the default config, run once."""
    cfg = MachineConfig()
    cfg.validate()
    return run_isa_suite(cfg)


@pytest.fixture(scope="session")
def probe_no_jitter():
    """The latency probe's report on the default config without jitter, run once."""
    cfg = MachineConfig()
    cfg.validate()
    return run_latency_probe(cfg, jitter=False)
