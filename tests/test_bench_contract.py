"""The benchmark under ``perfbench/`` traces the package by function and
parameter name.  These checks fail when a refactor renames something it
binds, before a benchmark run would."""

import importlib.util
import inspect
from pathlib import Path

from magnls import evolution, krylov

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores_every_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
    finally:
        assert tracer.restore()


def test_parameters_the_tracer_hooks_read_exist():
    for fn, names in ((krylov.solve, {"matvec", "b", "tol", "strict"}),
                      (evolution.linear_flow, {"t", "dt"}),
                      (evolution.evolve, {"config"})):
        assert names <= set(inspect.signature(fn).parameters), fn.__name__
