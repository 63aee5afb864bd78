import pytest

from runs import RunTable
from tilesim.config import MachineConfig


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
