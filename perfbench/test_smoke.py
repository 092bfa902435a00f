"""Smoke test of the benchmark's own plumbing, on reduced-size workloads.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is reported with its unit,
that the reference check fires on a perturbed reference, that a failing
operation is counted and not dropped, that tracing changes no artifact and
restores every wrapped function, and that the tracer's own residual probe
is not counted as solver work.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from workloads import WHY, WORKLOADS, workload  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reference():
    return run.load_reference()


@pytest.fixture(scope="module")
def traced_runs():
    """One untraced and one traced smoke iteration of every workload."""
    return {name: run.run_workload(name, run.REFERENCE_SEED, 0, True,
                                   size="smoke", setup_probes=1)
            for name in WORKLOADS}


def _names_units(metrics: dict) -> dict:
    return {k: m["unit"] for k, m in metrics.items()}


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(name, traced_runs, reference):
    result = run.evaluate(traced_runs[name], reference)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == 2 * len(workload(name, "smoke")["ops"])
    assert _names_units(result["end_to_end"]) == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert _names_units(result["per_layer"]) == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    layers = {k: m["value"] for k, m in result["per_layer"].items()}
    assert layers["evolution.cn_steps"] == layers["cost.cn_step.count"]
    assert layers["analysis.resolvent_points"] == \
        layers["cost.resolvent_point.count"]
    assert all(m["value"] > 0 for m in result["end_to_end"].values())


def test_workloads_match_benchmark_file():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == \
        [(name, WHY[name]) for name in WORKLOADS]


def test_reference_check_fires_on_a_perturbed_reference(traced_runs,
                                                        reference):
    raw = traced_runs["spectral-1d"]
    bad = copy.deepcopy(reference)
    entry = bad["workloads"]["spectral-1d"]["smoke"]["ground-state"]
    entry["values"]["e0"]["value"] *= 1.0 + 1e-4
    result = run.evaluate(raw, bad)
    assert not result["correct"]
    assert result["failed"] == 2      # the untraced and the traced iteration
    assert all("e0" in p for p in result["problems"])

    bad = copy.deepcopy(reference)
    gates = bad["workloads"]["spectral-1d"]["smoke"]["resolvent-scan"]["gates"]
    gates["resolvent_flatness"] = False
    assert run.evaluate(raw, bad)["failed"] == 2


def test_failing_operations_are_counted(reference):
    ops = workload("spectral-1d", "smoke")["ops"] + [
        {"name": "evolve-negative-dt", "kind": "cli", "subcommand": "evolve",
         "overrides": ["evolution.dt=-1"], "seeded": False},
        {"name": "unknown-call", "kind": "lib", "call": "no_such_call",
         "seeded": False},
    ]
    raw = run.run_workload("spectral-1d", run.REFERENCE_SEED, 0, False,
                           size="smoke", ops=ops, setup_probes=0)
    result = run.evaluate(raw, reference)
    assert result["attempted"] == 6
    assert result["failed"] == 2
    assert result["fail_frac"] == pytest.approx(2 / 6)
    assert not result["correct"]


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "spectral-1d",
         "--size", "smoke", "--seconds", "0", "--trace", "0", "--seed", "5"],
        capture_output=True, text=True, timeout=170, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_tracer_restores_everything_and_keeps_its_probe_out_of_counts():
    import numpy as np
    import numpy.fft

    import magnls
    import magnls.cli  # noqa: F401  (the tracer patches it too)
    from magnls import krylov
    from tracer import Tracer

    modules = [m for k, m in sys.modules.items()
               if k == "magnls" or k.startswith("magnls.")] + [numpy.fft]
    before = {id(m): dict(vars(m)) for m in modules}
    family_solve = magnls.BoundStateFamily.__dict__["solve"]

    rng = np.random.default_rng(0)
    a = rng.standard_normal((40, 40)) + 40.0 * np.eye(40)
    b = rng.standard_normal(40).astype(np.complex128)
    calls = 0

    def matvec(v):
        nonlocal calls
        calls += 1
        return a @ v

    tracer = Tracer()
    tracer.install()
    try:
        krylov.solve(matvec, b, tol=1e-30, max_iter=2, restart=2,
                     strict=False)
    finally:
        assert tracer.restore()
    assert tracer.counts["krylov.stalled"] == 1
    assert tracer.counts["krylov.matvecs"] == calls - 1   # minus the probe
    for m in modules:
        assert all(vars(m)[k] is v for k, v in before[id(m)].items())
    assert magnls.BoundStateFamily.__dict__["solve"] is family_solve
