"""Estimate machinery: admissibility, space-time norms, resolvent scans,
elliptic norm equivalence, dispersive quotients."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles as orc
from magnls import hamiltonian
from magnls import (
    ConfigError,
    GridSpec,
    MagnlsError,
    XNormAccumulator,
    build_gaussian_well,
    build_hamiltonian,
    build_localized_loop_field,
    default_lambda_grid,
    from_function,
    is_admissible,
    make_potential_pair,
    norm_equivalence_check,
    norm_h1,
    norm_w1p,
    norm_weighted_h1,
    resolvent_bound_scan,
    strichartz_ratio,
    zero_vector_field,
    zeros,
)

# depth tuned (on this exact 1D grid) so a second level sits just below zero:
# deep enough for the unshifted negative control, shallow enough to solve fast
DEEP_WELL_DEPTH = 2.8427726889277793


def test_admissible_pairs():
    assert is_admissible(math.inf, 2)
    assert is_admissible(3, Fraction(18, 5))
    assert is_admissible(3, 3.6)
    assert not is_admissible(2, 6)          # endpoint excluded
    assert not is_admissible(math.inf, 4)   # infinite q forces p = 2
    assert not is_admissible(1.5, 18 / 5)
    assert not is_admissible(4, 2.5)


def test_admissibility_along_the_scaling_line():
    # walk q through rationals >= 2 and solve 2/q + 3/p = 3/2 exactly
    for q in [Fraction(2), Fraction(5, 2), Fraction(3), Fraction(8, 3),
              Fraction(4), Fraction(7), Fraction(100)]:
        p = 3 / (Fraction(3, 2) - 2 / q)
        expected = 2 <= p < 6
        assert is_admissible(float(q), float(p)) == expected
        # any perturbation off the line must fail
        assert not is_admissible(float(q), float(p) + 1e-3)
        assert not is_admissible(float(q), float(p) - 1e-3)


def test_xnorm_closed_form():
    # constant-in-time field: integrals reduce to T^(1/2) and T^(1/3) factors
    g = GridSpec(1, (64,), (20.0,))
    f = from_function(g, lambda x: np.exp(-(x**2)))
    acc = XNormAccumulator(sigma=4.1)
    times = np.linspace(0.0, 2.0, 201)
    for t in times:
        acc.add(float(t), f)
    c1, c2, c3 = acc.components()
    assert c1 == pytest.approx(np.sqrt(2.0) * norm_weighted_h1(f, 4.1), rel=1e-6)
    assert c2 == pytest.approx(2.0 ** (1 / 3) * norm_w1p(f, 18 / 5), rel=1e-6)
    assert c3 == pytest.approx(norm_h1(f), rel=1e-12)
    assert acc.value() == pytest.approx(c1 + c2 + c3)


def test_xnorm_add_returns_the_norms_it_samples():
    g = GridSpec(1, (64,), (20.0,))
    f = from_function(g, lambda x: np.exp(-(x**2) + 0.5j * x))
    assert XNormAccumulator(sigma=4.1).add(0.0, f) == (
        norm_weighted_h1(f, 4.1), norm_w1p(f, 18 / 5), norm_h1(f))


def test_xnorm_rejects_time_reversal():
    g = GridSpec(1, (64,), (20.0,))
    f = from_function(g, lambda x: np.exp(-(x**2)))
    acc = XNormAccumulator()
    acc.add(0.0, f)
    acc.add(0.5, f)
    with pytest.raises(MagnlsError):
        acc.add(0.5, f)


def test_resolvent_scan_matches_dense_oracle_free_case():
    # A = V = 0: no bound state, so the scan runs without a projection and
    # every point can be checked against a dense SVD
    g = GridSpec(1, (64,), (20.0,))
    spec = build_hamiltonian(make_potential_pair(zero_vector_field(g), zeros(g)))
    lams = np.array([0.0, 1.2, 3.0])
    scan = resolvent_bound_scan(spec, None, lambda_grid=lams, eps=1e-2,
                                power_iters=120)
    for point, lam in zip(scan.points, lams):
        exact = orc.dense_weighted_resolvent_norm(spec, float(lam), 1e-2, 4.1)
        assert abs(point.opnorm - exact) <= 1e-3 * exact
        assert point.scaled == pytest.approx(
            np.sqrt(1.0 + lam * lam) * point.opnorm, rel=1e-12)


def test_resolvent_scan_matches_dense_oracle_with_projection(magnetic_spec,
                                                             magnetic_eig):
    lam = 1.5
    scan = resolvent_bound_scan(magnetic_spec, magnetic_eig,
                                lambda_grid=np.array([lam]), eps=1e-2,
                                power_iters=120)
    _, phi_dense = orc.dense_ground_state(magnetic_spec)
    exact = orc.dense_weighted_resolvent_norm(magnetic_spec, lam, 1e-2, 4.1,
                                              phi_dense)
    assert abs(scan.points[0].opnorm - exact) <= 1e-3 * exact


def test_resolvent_scan_is_flat_for_a_well(gauss_spec, gauss_eig):
    # default grid threads between the box's discrete levels, so both the
    # flatness gate and stability under a smaller imaginary offset hold
    scan = resolvent_bound_scan(gauss_spec, gauss_eig, power_iters=40)
    assert scan.uniform_ok
    assert scan.max_scaled <= 10.0 * scan.median_scaled
    finer = resolvent_bound_scan(gauss_spec, gauss_eig, eps=1e-3,
                                 power_iters=40)
    drift = abs(finer.max_scaled - scan.max_scaled) / scan.max_scaled
    assert drift <= 0.25


def test_resolvent_scan_converges_within_its_default_cap(gauss_spec,
                                                        gauss_eig):
    # Lanczos on the normal operator settles every default-grid point well
    # inside the 20 applications the default cap allows
    scan = resolvent_bound_scan(gauss_spec, gauss_eig)
    assert len(scan.points) == 16
    for point in scan.points:
        assert point.converged
        exact = orc.dense_weighted_resolvent_norm(
            gauss_spec, point.lam, 1e-2, 4.1, phi=gauss_eig.phi0.values)
        assert abs(point.opnorm - exact) <= 1e-5 * exact


def test_default_lambda_grid_avoids_box_levels(gauss_spec, magnetic_spec,
                                               monkeypatch):
    # the electric well (dense backend), a 1D gauge field and a 2D loop
    # field (Krylov); the levels come from the assembled matrix, with no
    # application of H
    from magnls.analysis import _dense_levels

    g = GridSpec(2, (16, 16), (20.0, 20.0))
    loop_spec = build_hamiltonian(make_potential_pair(
        build_localized_loop_field(g, 0.3, 1.5, 1.0),
        build_gaussian_well(g, -2.0, 1.0).v))
    applied = 0
    apply_h_values = hamiltonian._apply_h_values

    def counted(*args):
        nonlocal applied
        applied += 1
        return apply_h_values(*args)

    monkeypatch.setattr(hamiltonian, "_apply_h_values", counted)
    for spec in (gauss_spec, magnetic_spec, loop_spec):
        grid = default_lambda_grid(spec)
        assert applied == 0
        levels = _dense_levels(spec)
        assert grid.size >= 8
        assert np.all(np.diff(grid) > 0.0)
        assert grid.min() > 0.0 and grid.max() <= 6.0
        for lam in grid:
            assert np.abs(levels - lam * lam).min() >= 0.03


def test_scan_reports_a_real_spike_when_aimed_at_a_level(gauss_spec,
                                                         gauss_eig):
    # a lambda sitting right on a discretized continuum level is genuine
    # finite-box structure: the scan must agree with a dense factorization
    # there instead of smoothing it away
    from magnls.analysis import _dense_levels

    levels = _dense_levels(gauss_spec)
    level = levels[(levels > 2.0) & (levels < 4.0)][0]
    lam = math.sqrt(level)
    scan = resolvent_bound_scan(gauss_spec, gauss_eig,
                                lambda_grid=np.array([lam]),
                                power_iters=120)
    dense = orc.dense_weighted_resolvent_norm(gauss_spec, lam, 1e-2, 4.1,
                                              phi=gauss_eig.phi0.values)
    assert abs(scan.points[0].opnorm - dense) <= 1e-3 * dense
    flat = resolvent_bound_scan(gauss_spec, gauss_eig, power_iters=40)
    assert scan.points[0].scaled > 3.0 * flat.median_scaled


def test_norm_equivalence_with_the_shift_rule(gauss_spec):
    report = norm_equivalence_check(gauss_spec, trials=32, seed=5)
    assert report.ok
    for row in report.rows:
        assert row.spread <= 100.0
        assert row.r_min >= 1e-3


def test_norm_equivalence_negative_control():
    # same operator but K forced to zero on a well deep enough to park an
    # eigenvalue of H + K essentially at the origin: ratios collapse
    g = GridSpec(1, (256,), (40.0,))
    pair = build_gaussian_well(g, -DEEP_WELL_DEPTH, 1.0)
    spec = build_hamiltonian(pair, k_shift=0.0)
    report = norm_equivalence_check(spec, trials=32, seed=5)
    assert not report.ok
    assert any(row.r_min < 1e-3 for row in report.rows)


def test_strichartz_quotients_share_a_scale(gauss_spec, gauss_eig):
    report = strichartz_ratio(gauss_spec, gauss_eig, n_sources=2, n_duhamel=1,
                              t_final=0.5, dt=5e-3, stride=5)
    assert report.ok
    assert report.max_ratio <= 10.0 * report.median_ratio
    modes = {row.mode for row in report.rows}
    assert modes == {"homogeneous", "duhamel"}
    for row in report.rows:
        assert row.ratio == pytest.approx(row.value / row.reference, rel=1e-12)


def test_strichartz_rejects_inadmissible_pairs(gauss_spec, gauss_eig):
    with pytest.raises(ConfigError):
        strichartz_ratio(gauss_spec, gauss_eig, pairs=((2.0, 6.0),))


def test_strichartz_rejects_a_partial_step(gauss_spec, gauss_eig):
    with pytest.raises(ConfigError, match="whole number of steps"):
        strichartz_ratio(gauss_spec, gauss_eig, t_final=0.105, dt=2e-2)
