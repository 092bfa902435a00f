"""The benchmark under ``perfbench/`` traces the package by function,
parameter and result-field name.  These checks fail when a refactor renames
something it binds, before a benchmark run would."""

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

from magnls import (EvolveConfig, GridSpec, analysis, build_gaussian_well,
                    build_hamiltonian, build_localized_loop_field, evolution,
                    gaussian_bump, hamiltonian, krylov, make_potential_pair,
                    modulation)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# the private names one package module imports from another: each is a
# function the tracer wraps by name and rebinds where it was imported
TRACER_BOUND_IMPORTS = {
    ("bound_states", "hamiltonian", "_apply_h_values"),
    ("spectrum", "hamiltonian", "_apply_h_values"),
}


def new_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_installs_and_restores_every_target():
    tracer = new_tracer()
    try:
        tracer.install()
    finally:
        assert tracer.restore()


def test_tracer_counts_the_gmres_call_of_a_krylov_solve():
    g = GridSpec(2, (16, 16), (20.0, 20.0))
    spec = build_hamiltonian(make_potential_pair(
        build_localized_loop_field(g, 0.3, 1.5, 1.0),
        build_gaussian_well(g, -2.0, 1.0).v))
    f = gaussian_bump(g, 1.0, 2.0)
    tracer = new_tracer()
    try:
        tracer.install()
        hamiltonian.shifted_solve(spec, 1j, f)
        assert tracer.counts["krylov.gmres_calls"] == 1
    finally:
        assert tracer.restore()


def test_tracer_counts_every_step_of_a_dense_evolve():
    # the benchmark's cost.cn_step count is the number of calls of
    # evolution._cn_step_values; evolve must make one per step
    g = GridSpec(1, (64,), (20.0,))
    spec = build_hamiltonian(build_gaussian_well(g, -1.0, 1.0))
    assert spec.linear_backend == "dense"
    n_steps = 23
    cfg = EvolveConfig(dt=1e-3, t_final=n_steps * 1e-3, snapshot_stride=10)
    tracer = new_tracer()
    try:
        tracer.install()
        evolution.evolve(spec, gaussian_bump(g, 0.5, 2.0), cfg, 1)
        assert tracer.stats["evolution._cn_step_values"].count == n_steps
    finally:
        assert tracer.restore()


def test_tracer_counts_every_step_of_a_krylov_evolve():
    # the Krylov twin: each step hands the rows' solve histories through
    # evolution._cn_step_values, which must stay one call per step
    g = GridSpec(2, (16, 16), (20.0, 20.0))
    spec = build_hamiltonian(make_potential_pair(
        build_localized_loop_field(g, 0.3, 1.5, 1.0),
        build_gaussian_well(g, -2.0, 1.0).v))
    assert spec.linear_backend == "krylov"
    n_steps = 23
    cfg = EvolveConfig(dt=1e-3, t_final=n_steps * 1e-3, snapshot_stride=10,
                       conserve_tol=1e-3)
    tracer = new_tracer()
    try:
        tracer.install()
        evolution.evolve(spec, [gaussian_bump(g, a, 3.0) for a in (0.5, 1.0)],
                         cfg, 1)
        assert tracer.stats["evolution._cn_step_values"].count == n_steps
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


def test_no_other_private_name_crosses_modules():
    found = set()
    for path in sorted(Path(hamiltonian.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found |= {(path.stem, node.module, alias.name)
                          for alias in node.names
                          if alias.name.startswith("_")
                          and not alias.name.startswith("__")}
    assert found <= TRACER_BOUND_IMPORTS, sorted(found - TRACER_BOUND_IMPORTS)
