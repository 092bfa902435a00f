"""Workload definitions: the pipelines each benchmark workload runs.

A workload is a closed loop: one client in one fresh interpreter runs its
operations one after another.  An operation is either a CLI subcommand
(``magnls.cli.main`` with ``--override``) or, where no subcommand exists, a
library call.  Everything here is plain data so that the runner, which never
imports numpy, and the worker share one definition.

``size="smoke"`` gives a reduced version of each workload that runs in
seconds; the smoke test uses it to check the benchmark's own plumbing.
"""

from __future__ import annotations

WORKLOADS = ("stability-1d", "spectral-1d", "magnetic-2d")

# Why each workload exists; mirrored in BENCHMARK.json.
WHY = {
    "stability-1d": "nonlinear path: Strang/CN evolve, decompose frames, "
                    "scattering pullbacks and the Strichartz loop on the 1D "
                    "well",
    "spectral-1d": "linear-spectrum path: ground state, resolvent and "
                   "norm-equivalence scans and the 4-level low-spectrum "
                   "scan; no time step, no decompose",
    "magnetic-2d": "2D loop field with A != 0: Krylov-only H with 2D FFTs, "
                   "family cache and 31 snapshot writes",
}

_WELL_1D = "[grid]\nsizes = 256\nlengths = 40.0\n\n[potential]\nkind = gaussian_well\n"
_LOOP_2D = "[grid]\ndim = 2\nsizes = 64\nlengths = 20.0\n\n[potential]\nkind = loop\n"


def _cli(name: str, *overrides: str, seeded: bool = False) -> dict:
    return {"name": name, "kind": "cli", "subcommand": name,
            "overrides": list(overrides), "seeded": seeded}


def _scan(count: int) -> dict:
    return {"name": "low-spectrum-scan", "kind": "lib",
            "call": "low_spectrum_scan", "count": count, "seeded": False}


def workload(name: str, size: str = "full") -> dict:
    """Config text, operations and the main stage of one workload.

    ``main_stage`` names the pipeline reported as ``stage_s.main``.  The
    other pipelines are reported by name but not gated: each takes about a
    second or less (resolvent-scan's power-iteration count also varies by
    +-12 % with the seed), too little to repeat within a bound.
    """
    if size not in ("full", "smoke"):
        raise ValueError(f"unknown workload size {size!r}")
    full = size == "full"
    if name == "stability-1d":
        amps, t_final, stride = (("1e-3,4e-3", "0.5", "500") if full
                                 else ("1e-3", "0.02", "40"))
        ops = [
            _cli("stability-run", f"modulation.amplitudes={amps}",
                 f"evolution.t_final={t_final}", "evolution.dt=1e-4",
                 f"evolution.snapshot_stride={stride}"),
            _cli("strichartz-ratio", seeded=True),
        ]
        return {"config": _WELL_1D, "ops": ops,
                "main_stage": "stability-run"}
    if name == "spectral-1d":
        ops = [
            _cli("ground-state"),
            _cli("resolvent-scan", seeded=True),
            _cli("norm-equivalence", seeded=True),
            _scan(4 if full else 2),
        ]
        return {"config": _WELL_1D, "ops": ops,
                "main_stage": "low-spectrum-scan"}
    if name == "magnetic-2d":
        t_final = "0.3" if full else "0.05"
        ops = [
            _cli("ground-state"),
            _cli("bound-state"),
            _cli("evolve", f"evolution.t_final={t_final}", "evolution.dt=1e-3",
                 "evolution.snapshot_stride=10"),
            _cli("stability-run", f"evolution.t_final={t_final}",
                 "evolution.dt=1e-3",
                 f"evolution.snapshot_stride={50 if full else 10}",
                 "modulation.amplitudes=2e-3"),
        ]
        return {"config": _LOOP_2D, "ops": ops,
                "main_stage": "stability-run"}
    raise ValueError(f"unknown workload {name!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
