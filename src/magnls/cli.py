"""Command-line experiment runner.

Every subcommand reads one INI config, materializes the operator, runs its
pipeline, and writes artifacts plus a ``manifest.json`` into the output
directory.  The gates are computed where their thresholds live, mostly by a
verdict function beside the measurement (``stability_verdicts``,
``resolvent_verdicts``, the reports' ``verdicts``); a runner only records
them.  An experiment with more than one step lives in its library module
(``stability-run`` is ``modulation.stability_sweep``); the runner writes
what it returns.  Exit status: 0 when all property gates pass, 1 when a
gate fails, 2 when the numerics or the configuration break.  All
randomness is drawn from output.seed, and CSV files are written with '\\n'
line endings and 17-significant-digit floats so reruns are byte-identical.
JSON files are strict JSON: a non-finite float is written as null.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (at_most, default_lambda_grid, family_sweep,
                       norm_equivalence_check, resolvent_bound_scan,
                       resolvent_verdicts, scan_offsets, strichartz_ratio)
from .bound_states import BoundStateFamily, solve_bound_state
from .config import ExperimentConfig, parse_config
from .errors import (ConfigError, ConservationBreach, MagnlsError,
                     NoBoundStateError)
from .evolution import evolve
from .grid import (ComplexField, GridSpec, VectorField, make_field,
                   read_field, write_field, zero_vector_field)
from .hamiltonian import HamiltonianSpec, build_hamiltonian
from .modulation import (gauge_adjusted_variation, stability_sweep,
                         stability_verdicts)
from .potentials import (PotentialPair, build_gauge_field,
                         build_gaussian_well, build_localized_loop_field,
                         gaussian_bump, make_potential_pair, validate)
from .spectrum import MAX_RESIDUAL, ground_state


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _json_text(obj) -> str:
    """``obj`` as strict JSON text with sorted keys: a non-finite float,
    which json writes as NaN or Infinity, is read back as null."""
    strict = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(strict, indent=2, sort_keys=True) + "\n"


class RunContext:
    """Collects outputs, gates, stages, and warnings for one run."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.outputs: list[str] = []
        self.stages: list[dict] = []
        self.gates: dict[str, dict] = {}
        self.warnings: list[str] = []
        self.linear_backend: str | None = None

    def csv(self, name: str, header: list[str], rows: list[list]) -> None:
        lines = [",".join(header)]
        for row in rows:
            if len(row) != len(header):
                raise MagnlsError(f"{name}: row width {len(row)} != header "
                                  f"width {len(header)}")
            lines.append(",".join(_fmt(x) for x in row))
        path = self.out_dir / name
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        self.outputs.append(name)

    def field(self, name: str, f: ComplexField) -> None:
        write_field(self.out_dir / name, f)
        self.outputs.append(name)

    def json(self, name: str, obj) -> None:
        path = self.out_dir / name
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_json_text(obj))
        self.outputs.append(name)

    def record(self, gates: dict, warnings=()) -> None:
        """Record gates, each name -> (value, threshold text, verdict), and
        the warnings that go with them."""
        self.warnings.extend(warnings)
        for name, (value, threshold, passed) in gates.items():
            self.gates[name] = {"value": float(value), "threshold": threshold,
                                "passed": bool(passed)}

    def stage(self, name: str, status: str, detail: str) -> None:
        self.stages.append({"name": name, "status": status, "detail": detail})

    def warn(self, text: str) -> None:
        self.warnings.append(text)

    @property
    def all_gates_pass(self) -> bool:
        return all(g["passed"] for g in self.gates.values())


# ---------------------------------------------------------------------------
# materialization

def _grid_from(cfg: ExperimentConfig) -> GridSpec:
    return GridSpec(cfg.grid.dim, cfg.grid.sizes, cfg.grid.lengths)


def _read_on_grid(key: str, path: str, g: GridSpec) -> ComplexField:
    """The field stored at ``path``, named by config key ``key``; a field
    on a grid other than ``g`` is a ``ConfigError``."""
    f = read_field(path)
    if f.grid != g:
        raise ConfigError(
            f"{key} file {path} is on grid {f.grid.sizes} x "
            f"{f.grid.box_lengths}, not the config grid {g.sizes} x "
            f"{g.box_lengths}")
    return f


def _potentials_from(cfg: ExperimentConfig, g: GridSpec) -> PotentialPair:
    p = cfg.potential
    exponents = {"decay_eps": p.decay_eps, "lq_exponent": p.lq_exponent}
    if p.kind != "file":
        well = build_gaussian_well(g, p.depth, p.width, **exponents)
        if p.kind == "gaussian_well":
            return well
        if p.kind == "gauge":
            a = build_gauge_field(gaussian_bump(g, p.chi_amplitude,
                                                p.chi_width))
        else:
            a = build_localized_loop_field(g, p.loop_amplitude,
                                           p.loop_radius, p.loop_width)
        return make_potential_pair(a, well.v, **exponents)
    v = _read_on_grid("potential.v_file", p.v_file, g)
    if p.a_files:
        a = VectorField(tuple(_read_on_grid("potential.a_files", name, g)
                              for name in p.a_files))
    else:
        a = zero_vector_field(g)
    return make_potential_pair(a, v, **exponents)


def _spec_from(cfg: ExperimentConfig, ctx: RunContext) -> HamiltonianSpec:
    spec = build_hamiltonian(_potentials_from(cfg, _grid_from(cfg)))
    ctx.linear_backend = spec.linear_backend
    return spec


def _family_from(cfg: ExperimentConfig, ctx: RunContext) -> BoundStateFamily:
    """Operator, ground state and bound-state family: ``.spec``, ``.eig``."""
    spec = _spec_from(cfg, ctx)
    eig = ground_state(spec)
    return BoundStateFamily(spec, eig, cfg.nonlinearity.sign)


def _initial_state(cfg: ExperimentConfig,
                   spec: HamiltonianSpec) -> ComplexField:
    """The initial state of an evolution; only a bound_state or
    ground_state start needs the ground state."""
    e = cfg.evolution
    g = spec.grid
    if e.initial == "gaussian":
        return gaussian_bump(g, e.init_amplitude, e.init_width)
    if e.initial == "file":
        return _read_on_grid("evolution.init_file", e.init_file, g)
    eig = ground_state(spec)
    z = cfg.nonlinearity.z
    if e.initial == "ground_state":
        return make_field(g, z * eig.phi0.values)
    return solve_bound_state(spec, eig, z, cfg.nonlinearity.sign).field


# ---------------------------------------------------------------------------
# subcommands

def _run_validate_potentials(cfg: ExperimentConfig, ctx: RunContext) -> None:
    g = _grid_from(cfg)
    pot = _potentials_from(cfg, g)
    report = validate(pot)
    ctx.json("validation.json", {
        "statuses": report.statuses,
        "alpha_a": report.alpha_a, "alpha_v": report.alpha_v,
        "radii": list(report.radii),
        "tail_a": list(report.tail_a),
        "tail_v_minus": list(report.tail_v_minus),
        "notes": list(report.notes),
    })
    failed = [k for k, s in report.statuses.items() if s == "fail"]
    ctx.record({"potential_checks": (len(failed), "no failed checks",
                                     report.ok)}, report.notes)
    ctx.stage("validate", "ok" if report.ok else "gate-failed",
              ",".join(failed))


def _run_ground_state(cfg: ExperimentConfig, ctx: RunContext) -> None:
    spec = _spec_from(cfg, ctx)
    eig = ground_state(spec)
    ctx.field("phi0.fld", eig.phi0)
    ctx.json("ground_state.json", {
        "e0": eig.e0, "residual": eig.residual, "gap": eig.gap,
        "k_shift": spec.k_shift,
    })
    ctx.record({"eigen_residual": at_most(eig.residual, MAX_RESIDUAL),
                "bound_below": (eig.e0, "< 0", eig.e0 < 0.0)})
    ctx.stage("ground-state", "ok", f"e0={eig.e0:.12g}")


def _run_bound_state(cfg: ExperimentConfig, ctx: RunContext) -> None:
    family = _family_from(cfg, ctx)
    state = solve_bound_state(family.spec, family.eig, cfg.nonlinearity.z,
                              family.sign)
    ctx.field("bound_state.fld", state.field)
    ctx.json("bound_state.json", {
        "z_re": state.z.real, "z_im": state.z.imag,
        "e_prime": state.e_prime, "energy": state.energy,
        "residual": state.residual, "iterations": state.iterations,
        "sign": state.sign,
    })
    ctx.record({"eigen_problem_residual": at_most(state.residual,
                                                   MAX_RESIDUAL)})
    ctx.stage("bound-state", "ok",
              f"|z|={abs(state.z):.6g} E={state.energy:.12g}")


def _run_bound_family(cfg: ExperimentConfig, ctx: RunContext) -> None:
    sweep = family_sweep(_family_from(cfg, ctx), cfg.nonlinearity.z_sweep)
    ctx.csv("family.csv",
            ["z_re", "z_im", "energy", "e_prime", "q_h2", "residual",
             "iterations", "decay_beta", "decay_r2"],
            [[s.z.real, s.z.imag, s.energy, s.e_prime, q_h2, s.residual,
              s.iterations, fit.beta, fit.r_squared]
             for s, q_h2, fit in zip(sweep.states, sweep.q_h2, sweep.decay)])
    gates, summary, warnings = sweep.verdicts()
    ctx.json("family.json", summary)
    ctx.record(gates, warnings)
    ctx.stage("bound-family", "ok", f"slopes q={summary['slope_q_h2']:.3f} "
              f"e'={summary['slope_e_prime']:.3f}")


def _breach_gate(cfg: ExperimentConfig, ctx: RunContext, label: str,
                 exc: ConservationBreach) -> None:
    """Record a conservation breach as its failed drift gate and the
    stage."""
    ctx.record({exc.quantity: at_most(
        exc.drift, cfg.evolution.drift_limits[exc.quantity])})
    ctx.stage(label, "gate-failed", str(exc))


def _evolve_common(cfg: ExperimentConfig, ctx: RunContext, sign: int,
                   label: str) -> None:
    spec = _spec_from(cfg, ctx)
    traj, = evolve(spec, [_initial_state(cfg, spec)], cfg.evolution, sign)
    if isinstance(traj, ConservationBreach):
        _breach_gate(cfg, ctx, label, traj)
        return
    rows = []
    for j, t in enumerate(traj.times):
        rows.append([t, traj.mass[j], traj.energy[j], traj.h1[j]])
        ctx.field(f"snap_{j:06d}.fld", traj.snapshots[j])
    ctx.csv("series.csv", ["t", "mass", "energy", "h1"], rows)
    ctx.record({quantity: at_most(getattr(traj, quantity), tol)
                for quantity, tol in cfg.evolution.drift_limits.items()},
               traj.warnings)
    ctx.stage(label, "ok", f"{len(traj.times)} frames to t={traj.times[-1]:g}")


def _run_evolve(cfg: ExperimentConfig, ctx: RunContext) -> None:
    _evolve_common(cfg, ctx, cfg.nonlinearity.sign, "evolve")


def _run_linear_evolve(cfg: ExperimentConfig, ctx: RunContext) -> None:
    _evolve_common(cfg, ctx, 0, "linear-evolve")


def _run_stability(cfg: ExperimentConfig, ctx: RunContext) -> None:
    amplitudes = cfg.modulation.amplitudes
    runs = stability_sweep(_family_from(cfg, ctx), cfg.nonlinearity.z,
                           amplitudes, cfg.modulation.perturb_width,
                           cfg.evolution, sigma=cfg.modulation.sigma)
    # each amplitude is written in order up to the first that breached,
    # whose failed drift gate ends the run
    reports = []
    for idx, (amp, run) in enumerate(zip(amplitudes, runs)):
        if isinstance(run, ConservationBreach):
            _breach_gate(cfg, ctx, "stability-run", run)
            return
        _, rep = run
        for w in rep.warnings:
            ctx.warn(f"amplitude {amp:g}: {w}")
        ctx.csv(f"track_{idx}.csv",
                ["t", "z_re", "z_im", "energy", "w_re", "w_im", "eta_h1",
                 "eta_weighted_h1", "ortho_resid", "eta_q_pairing",
                 "newton_iters"],
                [[t, z.real, z.imag, e, w.real, w.imag, *etas, int(n)]
                 for t, z, e, w, *etas, n in zip(
                     rep.times, rep.z_series, rep.energy_series,
                     rep.gauge_adjusted, rep.eta_h1, rep.eta_weighted_h1,
                     rep.ortho_resid, rep.eta_q_pairing, rep.newton_iters)])
        ctx.field(f"eta_plus_{idx}.fld", rep.eta_plus_estimate)
        reports.append(rep)
    ctx.csv("stability.csv",
            ["amplitude", "pert_h1", "l1_mod_resid", "tv_first", "tv_second",
             "tv_ratio", "gap_01", "gap_12", "gap_23", "gap_ratio",
             "xnorm_weighted_l2h1", "xnorm_l3w1p", "xnorm_sup_h1",
             "wrap_around"],
            [[amp, amp, rep.l1_mod_resid, *gauge_adjusted_variation(rep),
              rep.tv_ratio, *rep.padded_gaps, rep.gap_ratio, *rep.x_norm_eta,
              rep.wrap_around] for amp, rep in zip(amplitudes, reports)])

    gates, summary, warnings = stability_verdicts(amplitudes, reports)
    ctx.json("stability.json", summary)
    ctx.record(gates, warnings)
    ctx.stage("stability-run", "ok",
              f"slope={summary['mod_resid_slope']:.3f}")


def _run_resolvent_scan(cfg: ExperimentConfig, ctx: RunContext) -> None:
    spec = _spec_from(cfg, ctx)
    try:
        eig = ground_state(spec)
    except NoBoundStateError:
        eig = None
        ctx.warn("no bound state; scanning without spectral projection")
    lambda_grid = default_lambda_grid(spec)
    scans = [resolvent_bound_scan(spec, eig, sigma=cfg.modulation.sigma,
                                  lambda_grid=lambda_grid, eps=eps,
                                  seed=cfg.output.seed)
             for eps in scan_offsets(cfg.solver.resolvent_eps)]
    ctx.csv("resolvent.csv",
            ["eps", "lambda", "opnorm", "scaled", "power_iters", "converged"],
            [[scan.eps, p.lam, p.opnorm, p.scaled, p.power_iters, p.converged]
             for scan in scans for p in scan.points])
    gates, summary, warnings = resolvent_verdicts(*scans)
    ctx.json("resolvent.json", summary)
    ctx.record(gates, warnings)
    ctx.stage("resolvent-scan", "ok", f"max={summary['max_scaled']:.4g} "
              f"median={summary['median_scaled']:.4g}")


def _run_norm_equivalence(cfg: ExperimentConfig, ctx: RunContext) -> None:
    spec = _spec_from(cfg, ctx)
    report = norm_equivalence_check(spec, seed=cfg.output.seed)
    rows = [[r.p, r.r_min, r.r_max, r.spread, r.passed] for r in report.rows]
    ctx.csv("norm_equivalence.csv",
            ["p", "r_min", "r_max", "spread", "passed"], rows)
    gates, _, warnings = report.verdicts()
    ctx.record(gates, warnings)
    ctx.stage("norm-equivalence", "ok", f"trials={report.trials}")


def _run_strichartz(cfg: ExperimentConfig, ctx: RunContext) -> None:
    spec = _spec_from(cfg, ctx)
    eig = ground_state(spec)
    report = strichartz_ratio(spec, eig, sigma=cfg.modulation.sigma,
                              seed=cfg.output.seed)
    rows = [[r.mode, r.source, r.q, r.p, r.value, r.reference, r.ratio]
            for r in report.rows]
    ctx.csv("strichartz.csv",
            ["mode", "source", "q", "p", "value", "reference", "ratio"], rows)
    gates, summary, warnings = report.verdicts()
    ctx.json("strichartz.json", summary)
    ctx.record(gates, warnings)
    ctx.stage("strichartz-ratio", "ok",
              f"max={report.max_ratio:.4g} median={report.median_ratio:.4g}")


_DISPATCH = {
    "validate-potentials": _run_validate_potentials,
    "ground-state": _run_ground_state,
    "bound-state": _run_bound_state,
    "bound-family": _run_bound_family,
    "evolve": _run_evolve,
    "linear-evolve": _run_linear_evolve,
    "stability-run": _run_stability,
    "resolvent-scan": _run_resolvent_scan,
    "norm-equivalence": _run_norm_equivalence,
    "strichartz-ratio": _run_strichartz,
}


def _write_manifest(ctx: RunContext, cfg: ExperimentConfig, subcommand: str,
                    status: str, wall: float, error: str = "") -> None:
    manifest = {
        "artifact_version": __version__,
        "subcommand": subcommand,
        "status": status,
        "error": error,
        "config": cfg.echo(),
        "seed": cfg.output.seed,
        "platform": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
            "system": platform.platform(),
            "blas_threads": {name: os.environ.get(name) for name in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
        "linear_backend": ctx.linear_backend,
        "wall_clock_s": wall,
        "stages": ctx.stages,
        "gates": ctx.gates,
        "warnings": ctx.warnings,
        "outputs": sorted(ctx.outputs + ["manifest.json"]),
    }
    fd, tmp = tempfile.mkstemp(dir=ctx.out_dir, prefix=".manifest-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_json_text(manifest))
        os.replace(tmp, ctx.out_dir / "manifest.json")
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run(subcommand: str, cfg: ExperimentConfig) -> int:
    """Execute one subcommand; returns the process exit status."""
    if subcommand not in _DISPATCH:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(out_dir)
    start = time.monotonic()
    try:
        _DISPATCH[subcommand](cfg, ctx)
    except MagnlsError as exc:
        ctx.stage(subcommand, "error", str(exc))
        _write_manifest(ctx, cfg, subcommand, "error",
                        time.monotonic() - start, error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = ctx.all_gates_pass
    _write_manifest(ctx, cfg, subcommand, "pass" if ok else "gate-failed",
                    time.monotonic() - start)
    for name, gate in ctx.gates.items():
        verdict = "pass" if gate["passed"] else "FAIL"
        print(f"[{verdict}] {name}: {gate['value']:.6g} ({gate['threshold']})")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="magnls",
        description="numerical laboratory for the cubic magnetic "
                    "Schrodinger equation")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--output", default=None)
        p.add_argument("--seed", default=None)
        p.add_argument("--override", action="append", default=[],
                       metavar="section.key=value")
    args = parser.parse_args(argv)
    overrides = list(args.override)
    if args.output is not None:
        overrides.append(f"output.directory={args.output}")
    if args.seed is not None:
        overrides.append(f"output.seed={args.seed}")
    try:
        cfg = parse_config(args.config, tuple(overrides))
        return run(args.subcommand, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
