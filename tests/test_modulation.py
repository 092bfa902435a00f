"""Decomposition into bound state plus radiation, trajectory tracking, and
the stability-run verdicts."""

import dataclasses
import math

import numpy as np
import pytest

from magnls import bound_states, modulation
from magnls import (
    BoundStateFamily,
    EvolveConfig,
    GridMismatchError,
    GridSpec,
    MagnlsError,
    NewtonDivergence,
    build_gaussian_well,
    build_hamiltonian,
    build_localized_loop_field,
    decompose,
    evolve,
    from_function,
    gauge_adjusted_variation,
    gauge_transform,
    gaussian_bump,
    ground_state,
    inner_l2,
    inner_real,
    linear_flow,
    make_field,
    make_potential_pair,
    norm_h1,
    norm_l2,
    project_continuous,
    scattering_gap,
    symplectic_gram,
    track,
    wrap_around_estimate,
)
from magnls.modulation import stability_sweep, stability_verdicts


def perturbed_state(spec, eig, family, amp, seed=0):
    base = family.solve(0.05)
    bump = from_function(spec.grid, lambda x: np.exp(-((x - 1.0) ** 2) / 4.0))
    pc = project_continuous(eig.phi0, bump)
    psi = make_field(spec.grid, base.field.values + amp * pc.values)
    return base, psi


def test_decompose_recovers_the_pair(sech_spec, sech_eig, sech_family):
    base, psi = perturbed_state(sech_spec, sech_eig, sech_family, 2e-3)
    rec = decompose(psi, sech_family)
    # reconstruction is definitionally exact
    q = sech_family.solve(rec.z)
    recon = q.field.values + rec.eta.values - psi.values
    assert np.max(np.abs(recon)) < 1e-14
    # the record carries Q[z] and E[z] of its accepted frame
    assert np.array_equal(rec.q.values, q.field.values)
    assert rec.energy == q.energy
    # symplectic orthogonality against both tangent directions
    assert rec.ortho_resid <= 1e-10 * max(norm_h1(rec.eta), 1e-300)
    d = sech_family.derivative_fields(rec.z)
    for tangent in (d.d1q, d.d2q):
        pair = inner_real(make_field(sech_spec.grid, 1j * rec.eta.values), tangent)
        assert abs(pair) <= 2e-10 * max(norm_h1(rec.eta), 1e-300)


def test_decompose_is_stable_under_recomposition(sech_spec, sech_eig, sech_family):
    _, psi = perturbed_state(sech_spec, sech_eig, sech_family, 1e-3)
    rec1 = decompose(psi, sech_family)
    rebuilt = make_field(sech_spec.grid,
                         sech_family.solve(rec1.z).field.values + rec1.eta.values)
    rec2 = decompose(rebuilt, sech_family, z_guess=rec1.z)
    assert abs(rec1.z - rec2.z) < 1e-12


def test_decompose_gauge_equivariance(sech_spec, sech_eig, sech_family):
    _, psi = perturbed_state(sech_spec, sech_eig, sech_family, 2e-3)
    rec = decompose(psi, sech_family)
    alpha = 0.9
    rotated = make_field(sech_spec.grid, np.exp(1j * alpha) * psi.values)
    rec_rot = decompose(rotated, sech_family)
    assert abs(rec_rot.z - np.exp(1j * alpha) * rec.z) < 1e-9 * abs(rec.z)
    eta_diff = rec_rot.eta.values - np.exp(1j * alpha) * rec.eta.values
    assert np.max(np.abs(eta_diff)) < 1e-9 * max(np.max(np.abs(rec.eta.values)), 1e-300)


def test_decompose_with_a_vector_potential():
    # 2D loop field (A != 0, Krylov backend): criterion 6's tolerances for
    # orthogonality and a change of gauge
    g = GridSpec(2, (64, 64), (20.0, 20.0))
    well = build_gaussian_well(g, -2.0, 1.0)
    pair = make_potential_pair(build_localized_loop_field(g, 0.3, 1.5, 1.0),
                               well.v)
    spec = build_hamiltonian(pair)
    eig = ground_state(spec)
    family = BoundStateFamily(spec, eig, 1)
    base = family.solve(0.05).field
    bump = project_continuous(eig.phi0, gaussian_bump(g, 1.0, 2.0))
    psi = make_field(g, base.values + 2e-3 * bump.values / norm_h1(bump))
    rec = decompose(psi, family)
    assert rec.ortho_resid <= 1e-10 * norm_h1(rec.eta)

    chi = gaussian_bump(g, 0.3, 2.0)
    spec2 = gauge_transform(spec, chi)
    eig2 = ground_state(spec2)
    phase = np.exp(1j * chi.values.real)
    rec2 = decompose(make_field(g, phase * psi.values),
                     BoundStateFamily(spec2, eig2, 1))
    c = inner_l2(eig2.phi0, make_field(g, phase * eig.phi0.values))
    assert abs(rec2.z - c * rec.z) <= 1e-9
    assert np.max(np.abs(rec2.eta.values - phase * rec.eta.values)) <= 1e-9


def test_a_short_stability_sweep_builds_its_family_once(sech_spec, sech_eig,
                                                       monkeypatch):
    # machine-independent work guard: every frame of the sweep lies inside
    # the span its first request builds, so the only fixed-point solves are
    # that build's: 4 nodes of the window s <= (1.1 * 0.05)^2 and one check
    solved = []
    real_solve = bound_states.solve_bound_state

    def counting(*args, **kwargs):
        solved.append(abs(args[2]))
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(bound_states, "solve_bound_state", counting)
    cfg = EvolveConfig(dt=1e-3, t_final=0.1, snapshot_stride=20)
    runs = stability_sweep(BoundStateFamily(sech_spec, sech_eig, 1), 0.05,
                           (1e-3, 2e-3), 2.0, cfg)
    frames = sum(len(rep.newton_iters) for _, rep in runs)
    assert frames == 12 and sum(sum(rep.newton_iters) for _, rep in runs) > 24
    assert all(rep.ortho_rel <= 1e-10 for _, rep in runs)
    assert len(solved) <= 5
    assert max(solved) == pytest.approx(0.055, rel=1e-12)


def test_decompose_rejects_states_outside_the_basin(sech_spec, sech_eig, sech_family):
    big = make_field(sech_spec.grid, 5.0 * sech_eig.phi0.values)
    with pytest.raises(MagnlsError):
        decompose(big, sech_family)


def test_newton_divergence_is_reported(sech_spec, sech_eig, sech_family):
    _, psi = perturbed_state(sech_spec, sech_eig, sech_family, 2e-3)
    with pytest.raises(NewtonDivergence):
        decompose(psi, sech_family, z_guess=0.19, max_newton=2)


@pytest.mark.parametrize("g12, message", [
    (0.0, "singular Jacobian at z = "),
    (math.nan, "non-finite Newton step at z = "),
    (1e-200, r"Newton iterate \|z\| = .* escaped the family ceiling"),
])
def test_each_newton_failure_raises_its_own_message(
        sech_spec, sech_eig, sech_family, monkeypatch, g12, message):
    _, psi = perturbed_state(sech_spec, sech_eig, sech_family, 2e-3)
    monkeypatch.setattr(modulation, "_gram_entry", lambda frame: g12)
    with pytest.raises(NewtonDivergence, match=message):
        decompose(psi, sech_family)


def test_decompose_with_a_guess_rejects_a_field_on_another_grid(
        sech_spec, sech_eig, sech_family):
    _, psi = perturbed_state(sech_spec, sech_eig, sech_family, 2e-3)
    other = GridSpec(1, sech_spec.grid.sizes, (30.0,))
    with pytest.raises(GridMismatchError,
                       match="field grid does not match operator grid"):
        decompose(make_field(other, psi.values), sech_family, z_guess=0.05)


def test_decompose_evaluates_one_frame_per_newton_iterate(
        sech_spec, sech_eig, monkeypatch):
    family = BoundStateFamily(sech_spec, sech_eig, 1)
    _, psi = perturbed_state(sech_spec, sech_eig, family, 2e-3)
    frames = []
    real_frame = family.derivative_fields

    def counting(z):
        frames.append(z)
        return real_frame(z)

    monkeypatch.setattr(family, "derivative_fields", counting)
    rec = decompose(psi, family)
    assert rec.newton_iters >= 2
    assert len(frames) == rec.newton_iters


@pytest.fixture(scope="module")
def loop16_family():
    g = GridSpec(2, (16, 16), (20.0, 20.0))
    spec = build_hamiltonian(make_potential_pair(
        build_localized_loop_field(g, 0.3, 1.5, 1.0),
        build_gaussian_well(g, -2.0, 1.0).v))
    return BoundStateFamily(spec, ground_state(spec), 1)


@pytest.mark.parametrize("z", [0.0, 0.04, 0.03 - 0.02j])
@pytest.mark.parametrize("which", ["1d-well", "16x16-loop"])
def test_symplectic_gram_is_the_four_tangent_pairings(which, z, sech_family,
                                                      loop16_family):
    family = sech_family if which == "1d-well" else loop16_family
    d = family.derivative_fields(z)
    g = family.spec.grid
    tangents = (d.d1q, d.d2q)
    pairings = np.array([[inner_real(dj, make_field(g, 1j * dk.values))
                          for dk in tangents] for dj in tangents])
    # decompose's closed-form step relies on G = [[0, G12], [-G12, 0]];
    # the tolerance only allows for a BLAS that rounds the diagonal off 0
    np.testing.assert_allclose(symplectic_gram(family, z), pairings,
                               rtol=0.0, atol=1e-13)


def test_symplectic_gram_structure(sech_family):
    g = symplectic_gram(sech_family, 0.04)
    # the phase/scaling tangent frame pairs to the standard symplectic form,
    # up to O(z^2) family curvature
    assert abs(g[0, 0]) < 1e-6
    assert abs(g[1, 1]) < 1e-6
    assert g[0, 1] == pytest.approx(-1.0, abs=1e-3)
    assert g[1, 0] == pytest.approx(1.0, abs=1e-3)


def test_scattering_gap_vanishes_for_the_linear_group(sech_spec, sech_eig):
    # eta evolving under exp(-itH) itself: consecutive pullbacks agree to
    # solver precision as long as the comparison reuses the trajectory dt
    bump = from_function(sech_spec.grid, lambda x: np.exp(-((x + 2.0) ** 2) / 2.0))
    eta0 = project_continuous(sech_eig.phi0, bump)
    dt = 2e-3
    eta1 = linear_flow(sech_spec, eta0, 0.4, dt=dt)
    eta2 = linear_flow(sech_spec, eta1, 0.4, dt=dt)
    gap = scattering_gap(sech_spec, eta1, 0.4, eta2, 0.8, dt=dt)
    assert gap < 1e-9 * norm_h1(eta0)


@pytest.fixture(scope="module")
def short_run(sech_spec, sech_eig, sech_family):
    _, psi = perturbed_state(sech_spec, sech_eig, sech_family, 1e-3)
    cfg = EvolveConfig(dt=1e-3, t_final=0.5, snapshot_stride=50)
    traj = evolve(sech_spec, psi, cfg, 1)
    return traj, track(traj, sech_family)


def test_track_on_a_short_run(short_run):
    traj, rep = short_run
    assert len(rep.times) == len(traj.times)
    assert np.all(np.diff(rep.times) > 0)
    # |z| should stay near its initial size over a short window
    assert abs(abs(rep.z_series[-1]) - abs(rep.z_series[0])) < 1e-4
    assert np.all(rep.ortho_resid <= 1e-10 * np.maximum(rep.eta_h1, 1e-300))
    # four checkpoint pullbacks, three consecutive gaps
    assert len(rep.scattering_checkpoints) == 4
    assert len(rep.scattering_gaps) == 3
    assert rep.eta_plus_estimate is not None
    tv1, tv2 = gauge_adjusted_variation(rep)
    assert tv1 >= 0 and tv2 >= 0
    assert rep.wrap_around == wrap_around_estimate(traj.snapshots[0])


def test_track_gaps_are_the_scattering_gaps_of_its_checkpoints(
        sech_spec, sech_family, short_run):
    traj, rep = short_run
    times = list(traj.times)

    def eta(t):
        psi = traj.snapshots[times.index(t)]
        return decompose(psi, sech_family, z_guess=None).eta

    for t1, t2, gap in rep.scattering_gaps:
        assert gap == pytest.approx(scattering_gap(
            sech_spec, eta(t1), t1, eta(t2), t2, dt=traj.dt), rel=1e-12)


def test_track_solves_the_family_only_for_decompose_frames(
        sech_spec, sech_eig, short_run, monkeypatch):
    # E[z] and Q[z] of each frame come from its decomposition record
    traj, _ = short_run
    family = BoundStateFamily(sech_spec, sech_eig, 1)
    real_frame, real_solve = family.derivative_fields, family.solve
    inside = False
    outside = []

    def frame(z):
        nonlocal inside
        inside = True
        try:
            return real_frame(z)
        finally:
            inside = False

    def solve(z):
        if not inside:
            outside.append(z)
        return real_solve(z)

    monkeypatch.setattr(family, "derivative_fields", frame)
    monkeypatch.setattr(family, "solve", solve)
    rep = track(traj, family)
    assert outside == []
    assert rep.energy_series.tolist() == [real_solve(z).energy
                                          for z in rep.z_series]


@pytest.mark.parametrize("amplitudes", [(2e-3, 2e-3), (1e-3, 0.0)])
def test_stability_sweep_needs_positive_distinct_amplitudes(
        sech_family, amplitudes):
    cfg = EvolveConfig(dt=1e-3, t_final=0.5, snapshot_stride=50)
    with pytest.raises(MagnlsError, match="positive and pairwise distinct"):
        stability_sweep(sech_family, 0.05, amplitudes, 2.0, cfg)


def test_stability_sweep_counts_its_frames_before_it_evolves(
        sech_family, monkeypatch):
    def no_evolve(*args, **kwargs):
        raise AssertionError("evolve ran")

    monkeypatch.setattr(modulation, "evolve", no_evolve)
    # frames 0.1 apart: t = 0, 0.1, 0.2, 0.3
    cfg = EvolveConfig(dt=1e-4, t_final=0.3, snapshot_stride=1000)
    assert cfg.frames == 4
    with pytest.raises(MagnlsError, match=r"need >= 5 frames"):
        stability_sweep(sech_family, 0.05, (1e-3, 2e-3), 2.0, cfg)


def test_track_needs_enough_frames(sech_spec, sech_eig, sech_family):
    _, psi = perturbed_state(sech_spec, sech_eig, sech_family, 1e-3)
    cfg = EvolveConfig(dt=1e-3, t_final=0.2, snapshot_stride=100)
    traj = evolve(sech_spec, psi, cfg, 1)
    with pytest.raises(MagnlsError):
        track(traj, sech_family)


def _growing_gaps(rep, wrap_around):
    # the last scattering gap twice the first
    return dataclasses.replace(
        rep, scattering_gaps=((0.0, 0.1, 1.0), (0.1, 0.2, 1.5),
                              (0.2, 0.3, 2.0)),
        wrap_around=wrap_around)


def test_gap_growth_past_the_wrap_around_estimate_is_waived(short_run):
    _, rep = short_run
    grown = _growing_gaps(rep, 0.5 * rep.times[-1])
    gates, summary, warnings = stability_verdicts([1e-3], [grown])
    value, threshold, passed = gates["scattering_cauchy"]
    assert value == 2.0
    assert passed
    assert "waived" in threshold
    assert summary["wrap_violated"]
    assert len(warnings) == 1
    assert "wrap-compromised" in warnings[0]


def test_gap_growth_inside_the_window_fails(short_run):
    _, rep = short_run
    grown = _growing_gaps(rep, 2.0 * rep.times[-1])
    gates, summary, warnings = stability_verdicts([1e-3], [grown])
    value, _, passed = gates["scattering_cauchy"]
    assert value == 2.0
    assert not passed
    assert not summary["wrap_violated"]
    assert warnings == ()


def test_slope_gate_needs_two_amplitudes(short_run):
    _, rep = short_run
    gates, summary, _ = stability_verdicts([1e-3], [rep])
    assert "mod_resid_slope" not in gates
    assert math.isnan(summary["mod_resid_slope"])
    amps = (1e-3, 2e-3)
    gates, summary, _ = stability_verdicts(amps, [
        dataclasses.replace(rep, l1_mod_resid=5.0 * a * a) for a in amps])
    value, _, passed = gates["mod_resid_slope"]
    assert abs(value - 2.0) < 1e-9
    assert passed
    assert summary["mod_resid_slope"] == value
