"""The benchmark under ``perfbench/`` traces the package by function,
parameter and result-field name.  These checks fail when a refactor renames
something it binds, before a benchmark run would."""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

from magnls import analysis, evolution, hamiltonian, krylov, modulation

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
    # the resolvent hook takes these two positionally
    params = list(inspect.signature(hamiltonian.resolvent_solve).parameters)
    assert params[:2] == ["spec", "zeta"]


def test_fields_the_tracer_hooks_read_exist():
    for cls, names in ((analysis.ResolventScan, {"points"}),
                       (analysis.ResolventPoint, {"power_iters"}),
                       (modulation.DecompositionRecord, {"newton_iters"}),
                       (evolution.EvolveConfig, {"t_final", "dt"})):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert names <= fields, cls.__name__
