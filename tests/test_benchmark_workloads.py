"""The benchmark's negative controls and wedge probe, run in-process.

``perfbench/workloads.py`` calls library names directly (``thm{1,2,3}_{even,odd}``,
the wedge eliminations, the family builders, ``numeric_matrix``,
``verify_identity`` and ``WedgeFactorization.product``).  Running its controls
here makes a change that removes or breaks one of them fail the test suite,
not only the benchmark run.  So does installing ``perfbench/layertrace.py``'s
tracer, which refuses a package that stores a public function where it cannot
wrap it (in a module-level dict, list or tuple).  The benchmark's files are
only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import spiraldet
import spiraldet.cli  # noqa: F401  (the workloads reach the package's submodules)

SEED = 60493


def load_perfbench(stem):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ beside the benchmark
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
        del sys.modules[spec.name]
    return module


workloads = load_perfbench("workloads")
layertrace = load_perfbench("layertrace")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_negative_control_catches_every_wrong_answer(name):
    tally = workloads.Tally()
    workloads.WORKLOADS[name].control(spiraldet, SEED, tally)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.notes


def test_wedge_probe_answers_every_size():
    tally = workloads.WORKLOADS["aux_checks"].probe(spiraldet)
    assert tally.attempted == len(workloads.KNOWN_WEDGE_REFUSALS)
    assert tally.failed == 0, tally.notes


def test_tracer_installs_on_the_package(tmp_path):
    original = spiraldet.spiral_builder.build_additive
    tracer = layertrace.Tracer()
    uninstall = layertrace.install(tracer)
    try:
        out = tmp_path / "gen.json"
        assert spiraldet.cli.main(["gen", "--family", "generalized", "--n", "3",
                                   "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("{")
        assert tracer.spans
        assert tracer.counters["cli.main.calls"] == 1
        assert tracer.counters["spiral_builder.build.calls"] == 1
    finally:
        uninstall()
    assert spiraldet.spiral_builder.build_additive is original
