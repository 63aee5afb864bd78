"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps src entry
points by name. A rename in src makes it fail with a KeyError; this runs the
hello guest under the same wrappers, so the suite fails first."""

from runs import perfbench
from tilesim import corpus
from tilesim.config import MachineConfig
from tilesim.machine import Machine


def test_layer_wrappers_run_hello_and_split_guest_cycles(tmp_path):
    run = perfbench("run")
    config = MachineConfig()
    config.validate()
    machine = Machine(config, binary=corpus.hello_elf(config), sandbox_dir=str(tmp_path))
    tracer = run.Tracer()
    run.install_layer_wrappers(tracer, machine)
    try:
        counters = machine.run().counters
    finally:
        tracer.unwrap_all()

    assert bytes(machine.stdout_data) == b"hello\n"
    split = sum(tracer.counts[f"rv32.core.{part}_cycles"] for part in ("fetch", "exec", "data"))
    assert split == counters["guest_cycles"]
    for layer in ("mem.fabric.directory_handle", "mem.fabric.cache_handle"):
        assert tracer.layer(layer)[0] > 0, layer
