"""Acceptance gates for the whole laboratory, one test per criterion.

Each test prints a single verdict line (visible with ``pytest -s``) and
asserts the same condition, so the -v listing doubles as the scoreboard.
The slow shared ingredient — the three-amplitude perturbation sweep of the
default well — runs once as a module fixture and feeds four criteria.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles as orc
from conftest import sech_well_potentials
from magnls import (
    BoundStateFamily,
    ConservationBreach,
    EvolveConfig,
    GridSpec,
    build_gaussian_well,
    build_hamiltonian,
    decay_fit,
    decompose,
    evolve,
    gauge_adjusted_variation,
    gauge_transform,
    gaussian_bump,
    ground_state,
    inner_l2,
    is_admissible,
    make_field,
    make_potential_pair,
    norm_equivalence_check,
    norm_h1,
    norm_h2,
    norm_l2,
    project_continuous,
    resolvent_bound_scan,
    zero_vector_field,
)
from magnls import modulation
from magnls.analysis import all_passed, resolvent_verdicts
from magnls.cli import main

Z_SWEEP = (0.01, 0.02, 0.04, 0.08)
AMPLITUDES = (1e-3, 2e-3, 4e-3)
DEEP_WELL_DEPTH = 2.8427726889277793


def _report(num, label, ok, detail):
    verdict = "pass" if ok else "FAIL"
    print(f"criterion {num:02d} [{verdict}] {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def well_spec():
    g = GridSpec(1, (256,), (40.0,))
    return build_hamiltonian(build_gaussian_well(g, -2.0, 1.0))


@pytest.fixture(scope="module")
def well_eig(well_spec):
    return ground_state(well_spec)


@pytest.fixture(scope="module")
def well_family(well_spec, well_eig):
    return BoundStateFamily(well_spec, well_eig, 1)


@pytest.fixture(scope="module")
def gauged(well_spec, well_eig):
    chi = gaussian_bump(well_spec.grid, 0.3, 2.0)
    spec2 = gauge_transform(well_spec, chi)
    eig2 = ground_state(spec2)
    return chi, spec2, eig2, BoundStateFamily(spec2, eig2, 1)


@pytest.fixture(scope="module")
def stability_sweep(well_family):
    """Default-well perturbation sweep shared by criteria 6 through 9: the
    experiment of ``magnls stability-run``, by the same library call."""
    start = time.monotonic()
    runs = modulation.stability_sweep(
        well_family, 0.05 + 0.0j, AMPLITUDES, 2.0,
        EvolveConfig(dt=1e-4, t_final=4.0, snapshot_stride=500), sigma=4.1)
    for run in runs:
        if isinstance(run, ConservationBreach):
            raise run
    return {"runs": [(amp, traj, rep)
                     for amp, (traj, rep) in zip(AMPLITUDES, runs)],
            "elapsed": time.monotonic() - start}


def test_criterion_01_linear_ground_state_of_the_sech_well():
    start = time.monotonic()
    g = GridSpec(1, (256,), (40.0,))
    spec = build_hamiltonian(sech_well_potentials(g))
    eig = ground_state(spec)
    e_err = abs(eig.e0 + 1.0)
    ref = 1.0 / np.cosh(g.coords[0])
    ref = ref / (norm_l2(make_field(g, ref.astype(np.complex128))))
    sup_err = float(np.max(np.abs(eig.phi0.values - ref)))

    g64 = GridSpec(1, (64,), (40.0,))
    spec64 = build_hamiltonian(sech_well_potentials(g64))
    lib64 = ground_state(spec64)
    e_dense, phi_dense = orc.dense_ground_state(spec64)
    de_dense = abs(lib64.e0 - e_dense)
    overlap = abs(inner_l2(lib64.phi0, orc.as_field(g64, phi_dense)))
    elapsed = time.monotonic() - start
    ok = (e_err <= 2e-6 and sup_err <= 1e-5 and de_dense <= 1e-10
          and 1.0 - overlap <= 1e-10 and elapsed < 10.0)
    _report(1, "linear ground state", ok,
            f"|e0+1|={e_err:.3g} sup|phi0-sech|={sup_err:.3g} "
            f"dense|de|={de_dense:.3g} 1-overlap={1.0 - overlap:.3g} "
            f"t={elapsed:.1f}s")


def test_criterion_02_gauge_covariance(well_spec, well_eig, well_family,
                                       gauged):
    start = time.monotonic()
    _, _, eig2, fam2 = gauged
    de = abs(eig2.e0 - well_eig.e0)
    de_family = max(abs(well_family.energy(z) - fam2.energy(z))
                    for z in Z_SWEEP)
    elapsed = time.monotonic() - start
    ok = de <= 1e-8 and de_family <= 1e-7 and elapsed < 60.0
    _report(2, "gauge covariance", ok,
            f"|de0|={de:.3g} max|dE[z]|={de_family:.3g} t={elapsed:.1f}s")


def test_criterion_03_bifurcation_scalings(well_spec, well_eig):
    start = time.monotonic()
    family = BoundStateFamily(well_spec, well_eig, 1)
    states = [family.solve(z) for z in Z_SWEEP]
    worst_resid = max(s.residual for s in states)
    logz = np.log(np.array(Z_SWEEP))
    q_slope = float(np.polyfit(
        logz, np.log([norm_h2(s.correction) for s in states]), 1)[0])
    e_slope = float(np.polyfit(
        logz, np.log([abs(s.e_prime) for s in states]), 1)[0])
    elapsed = time.monotonic() - start
    ok = (abs(q_slope - 3.0) <= 0.3 and abs(e_slope - 2.0) <= 0.3
          and worst_resid <= 1e-9 and elapsed < 120.0)
    _report(3, "bifurcation scalings", ok,
            f"slope(|q|_H2)={q_slope:.3f} slope(|e'|)={e_slope:.3f} "
            f"max resid={worst_resid:.3g} t={elapsed:.1f}s")


def test_criterion_04_exponential_decay(well_family, sech_family):
    fits = []
    for fam in (well_family, sech_family):
        for z in Z_SWEEP:
            fits.append(decay_fit(fam.solve(z).field))
    all_decay = all(f.beta > 0.0 and f.r_squared >= 0.98 for f in fits)
    small = decay_fit(sech_family.solve(Z_SWEEP[0]).field)
    beta_err = abs(small.beta - 1.0)
    ok = all_decay and beta_err <= 0.2
    _report(4, "exponential decay", ok,
            f"min r2={min(f.r_squared for f in fits):.4f} "
            f"min beta={min(f.beta for f in fits):.3f} "
            f"sech beta={small.beta:.3f} (|beta-1|={beta_err:.3f})")


def test_criterion_05_bound_state_orbit(well_spec, well_family):
    state = well_family.solve(0.05 + 0.0j)
    traj = evolve(well_spec, state.field,
                  EvolveConfig(dt=1e-3, t_final=10.0, snapshot_stride=100),
                  1)
    g = well_spec.grid
    worst = 0.0
    for t, snap in zip(traj.times, traj.snapshots):
        ref = np.exp(-1j * state.energy * t) * state.field.values
        worst = max(worst, norm_l2(make_field(g, snap.values - ref)))
    mass_drift = float(np.max(np.abs(traj.mass - traj.mass[0]))
                       / traj.mass[0])
    energy_drift = float(np.max(np.abs(traj.energy - traj.energy[0]))
                         / abs(traj.energy[0]))
    ok = worst <= 1e-3 and mass_drift <= 1e-6 and energy_drift <= 1e-5
    _report(5, "bound-state orbit", ok,
            f"max L2 err={worst:.3g} mass drift={mass_drift:.3g} "
            f"energy drift={energy_drift:.3g}")


def test_criterion_06_decomposition_exactness(well_spec, well_eig,
                                              well_family, gauged,
                                              stability_sweep):
    worst_ortho_rel = 0.0
    for _, traj, rep in stability_sweep["runs"]:
        for j, snap in enumerate(traj.snapshots):
            rec = decompose(snap, well_family,
                            z_guess=complex(rep.z_series[j]))
            worst_ortho_rel = max(
                worst_ortho_rel,
                rec.ortho_resid / max(norm_h1(rec.eta), 1e-300))

    chi, spec2, eig2, fam2 = gauged
    g = well_spec.grid
    base = well_family.solve(0.05 + 0.0j).field
    bump = project_continuous(well_eig.phi0, gaussian_bump(g, 1.0, 2.0))
    psi = make_field(g, base.values + 2e-3 * bump.values / norm_h1(bump))
    rec = decompose(psi, well_family)
    phase = np.exp(1j * chi.values.real)
    rec2 = decompose(make_field(g, phase * psi.values), fam2)
    # the transformed ground state carries a constant phase relative to
    # exp(i chi) phi0; z and eta transport with exactly that bookkeeping
    c = inner_l2(eig2.phi0, make_field(g, phase * well_eig.phi0.values))
    dz = abs(rec2.z - c * rec.z)
    deta = float(np.max(np.abs(rec2.eta.values - phase * rec.eta.values)))
    ok = worst_ortho_rel <= 1e-10 and dz <= 1e-9 and deta <= 1e-9
    _report(6, "decomposition exactness", ok,
            f"max ortho/|eta|={worst_ortho_rel:.3g} "
            f"gauge |dz|={dz:.3g} sup|deta|={deta:.3g}")


def test_criterion_07_modulation_bound_slope(stability_sweep):
    l1s = [rep.l1_mod_resid for _, _, rep in stability_sweep["runs"]]
    slope = float(np.polyfit(np.log(AMPLITUDES), np.log(l1s), 1)[0])
    in_window = all(rep.times[-1] <= rep.wrap_around
                    for _, _, rep in stability_sweep["runs"])
    elapsed = stability_sweep["elapsed"]
    ok = abs(slope - 2.0) <= 0.4 and in_window and elapsed < 600.0
    _report(7, "modulation-bound slope", ok,
            f"slope={slope:.3f} pre-wrap window={in_window} "
            f"sweep t={elapsed:.0f}s")


def test_criterion_08_gauge_adjusted_convergence(stability_sweep):
    ratios = []
    for _, _, rep in stability_sweep["runs"]:
        tv1, tv2 = gauge_adjusted_variation(rep)
        ratios.append(tv2 / max(tv1, 1e-300))
    worst = max(ratios)
    ok = worst <= 0.25
    _report(8, "gauge-adjusted convergence", ok,
            f"worst second/first TV ratio={worst:.3f}")


def test_criterion_09_scattering_cauchy_gaps(stability_sweep):
    worst = 0.0
    wrap_violated = False
    for _, _, rep in stability_sweep["runs"]:
        gaps = [d for _, _, d in rep.scattering_gaps]
        worst = max(worst, gaps[-1] / max(gaps[0], 1e-300))
        wrap_violated |= rep.times[-1] > rep.wrap_around
    ok = worst <= 0.5
    note = ""
    if not ok and wrap_violated:
        ok = True
        note = " (waived: wrap-around window violated)"
    _report(9, "scattering Cauchy gaps", ok,
            f"worst late/early gap ratio={worst:.3f}{note}")


def test_criterion_10_resolvent_scan(well_spec, well_eig):
    start = time.monotonic()
    scan = resolvent_bound_scan(well_spec, well_eig, power_iters=40)
    fine = resolvent_bound_scan(well_spec, well_eig, eps=1e-3,
                                power_iters=40)
    flat = scan.max_scaled / scan.median_scaled
    drift = abs(fine.max_scaled - scan.max_scaled) / scan.max_scaled
    lam = scan.points[len(scan.points) // 2].lam
    single = resolvent_bound_scan(well_spec, well_eig,
                                  lambda_grid=np.array([lam]),
                                  power_iters=120)
    dense = orc.dense_weighted_resolvent_norm(
        well_spec, lam, 1e-2, 4.1, phi=well_eig.phi0.values)
    rel = abs(single.points[0].opnorm - dense) / dense
    elapsed = time.monotonic() - start
    ok = (all_passed(resolvent_verdicts(scan, fine)[0]) and flat <= 10.0
          and drift <= 0.25
          and rel <= 1e-3 and elapsed < 300.0)
    _report(10, "weighted resolvent scan", ok,
            f"max/median={flat:.2f} eps drift={drift:.3f} "
            f"dense rel err={rel:.2e} t={elapsed:.1f}s")


def test_criterion_11_graph_norm_equivalence(well_spec):
    report = norm_equivalence_check(well_spec, trials=64, seed=11)
    spread = max(row.spread for row in report.rows)
    r_min = min(row.r_min for row in report.rows)
    g = GridSpec(1, (256,), (40.0,))
    deep = build_hamiltonian(
        build_gaussian_well(g, -DEEP_WELL_DEPTH, 1.0), k_shift=0.0)
    control = norm_equivalence_check(deep, trials=32, seed=5)
    ok = (report.ok and spread <= 100.0 and r_min >= 1e-3
          and {row.p for row in report.rows} == {2.0, 18.0 / 5.0}
          and not control.ok)
    _report(11, "graph-norm equivalence", ok,
            f"spread={spread:.1f} r_min={r_min:.3g} "
            f"K=0 control fails={not control.ok}")


def test_criterion_12_admissible_pairs():
    named = (is_admissible(math.inf, 2), is_admissible(3, Fraction(18, 5)),
             not is_admissible(2, 6))
    line_ok = True
    for q in (Fraction(9, 4), Fraction(5, 2), 3, Fraction(7, 2), 4, 9, 100):
        p = 3 / (Fraction(3, 2) - Fraction(2, 1) / q)
        line_ok &= is_admissible(q, p)
        line_ok &= not is_admissible(q, p + Fraction(1, 1000))
        line_ok &= not is_admissible(q, p - Fraction(1, 1000))
    # the q = 2 endpoint pairs with p = 6, which the open range excludes
    line_ok &= not is_admissible(2, 3 / (Fraction(3, 2) - 1))
    ok = all(named) and line_ok
    _report(12, "admissible exponent pairs", ok,
            f"named pairs={named} line sweep={line_ok}")


def test_criterion_13_deterministic_artifacts(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[grid]\nsizes = 256\nlengths = 40.0\n\n"
                   "[potential]\nkind = gaussian_well\n", encoding="utf-8")
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["resolvent-scan", "--config", str(cfg),
                     "--output", str(out)]) == 0
        assert main(["ground-state", "--config", str(cfg),
                     "--output", str(out)]) == 0
        payloads.append(((out / "resolvent.csv").read_bytes(),
                         (out / "phi0.fld").read_bytes(),
                         (out / "ground_state.json").read_bytes()))
    ok = payloads[0] == payloads[1]
    _report(13, "deterministic artifacts", ok,
            "rerun CSV, field snapshot, and JSON payloads byte-identical"
            if ok else "rerun artifacts differ")
