"""Estimate machinery: admissibility, space-time norms, resolvent scans,
elliptic norm equivalence, dispersive quotients."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles as orc
from magnls import hamiltonian, krylov
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
    ground_state,
    is_admissible,
    make_field,
    make_potential_pair,
    norm_equivalence_check,
    norm_h1,
    norm_l2,
    norm_w1p,
    norm_weighted_h1,
    resolvent_bound_scan,
    strichartz_ratio,
    zero_vector_field,
    zeros,
)
from magnls.analysis import (all_passed, family_sweep, resolvent_verdicts,
                             time_norm)
from magnls.bound_states import BoundStateFamily
from magnls.evolution import EvolveConfig, evolve
from magnls.hamiltonian import lower_bound, project_continuous
from magnls.modulation import track

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


def test_xnorm_of_no_samples_is_zero():
    assert XNormAccumulator().components() == (0.0, 0.0, 0.0)


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
    assert scan.max_scaled <= 10.0 * scan.median_scaled
    finer = resolvent_bound_scan(gauss_spec, gauss_eig, eps=1e-3,
                                 power_iters=40)
    drift = abs(finer.max_scaled - scan.max_scaled) / scan.max_scaled
    assert drift <= 0.25
    gates, summary, _ = resolvent_verdicts(scan, finer)
    assert all_passed(gates)
    assert summary["eps_drift"] == drift


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


def test_default_lambda_grid_falls_back_to_a_uniform_grid():
    # beyond 2,048 points no level ladder is computed, and an 8-point box
    # has fewer than four gaps wide enough to sample
    uniform = np.linspace(0.0, 6.0, 16)
    for n in (4096, 8):
        g = GridSpec(1, (n,), (40.0,))
        spec = build_hamiltonian(build_gaussian_well(g, -2.0, 1.0))
        np.testing.assert_array_equal(default_lambda_grid(spec), uniform)


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


def test_shift_rule_keeps_h1_positive_on_a_strong_loop_field():
    # sup|A|^2 enters the one lower bound s of H, which is the eigensolver's
    # shift and sets K = 1 - s; without it K was 4.05 here, below
    # -e0 = 6.71, and the indefinite H + K spread the ratios to 120
    g = GridSpec(2, (32, 32), (20.0, 20.0))
    spec = build_hamiltonian(make_potential_pair(
        build_localized_loop_field(g, 2.0, 1.5, 1.0),
        build_gaussian_well(g, -2.0, 1.0).v))
    eig = ground_state(spec)
    assert lower_bound(spec.potentials) <= eig.e0
    assert eig.e0 + spec.k_shift >= 1.0
    gates, _, _ = norm_equivalence_check(spec, trials=8, seed=5).verdicts()
    assert gates["ratio_spread"][2] and gates["ratio_floor"][2]


def test_norm_equivalence_negative_control():
    # same operator but K forced to zero on a well deep enough to park an
    # eigenvalue of H + K essentially at the origin: ratios collapse
    g = GridSpec(1, (256,), (40.0,))
    pair = build_gaussian_well(g, -DEEP_WELL_DEPTH, 1.0)
    spec = build_hamiltonian(pair, k_shift=0.0)
    report = norm_equivalence_check(spec, trials=32, seed=5)
    assert not report.ok
    assert any(row.r_min < 1e-3 for row in report.rows)


def test_family_sweep_notes_a_skipped_decay_fit():
    # the radial window of a 64-point well holds 14 samples, too few for a
    # decay fit: each state's fit is skipped with a note, and no decay gate
    # is recorded
    g = GridSpec(1, (64,), (40.0,))
    spec = build_hamiltonian(build_gaussian_well(g, -2.0, 1.0))
    sweep = family_sweep(BoundStateFamily(spec, ground_state(spec), 1),
                         (0.01, 0.02))
    assert [note.split(":")[0] for note in sweep.notes] == [
        "decay fit skipped at z=0.01", "decay fit skipped at z=0.02"]
    assert all(math.isnan(fit.beta) for fit in sweep.decay)
    gates, summary, notes = sweep.verdicts()
    assert sorted(gates) == ["family_residuals", "slope_e_prime",
                             "slope_q_h2"]
    assert summary["decay"] == [] and notes == sweep.notes


def test_strichartz_quotients_share_a_scale(gauss_spec, gauss_eig):
    report = strichartz_ratio(gauss_spec, gauss_eig, n_sources=2, n_duhamel=1,
                              t_final=0.5, dt=5e-3, stride=5)
    assert all_passed(report.verdicts()[0])
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


@pytest.mark.parametrize("dt", [0.0, -2e-3])
def test_strichartz_rejects_a_step_that_is_not_positive(gauss_spec, gauss_eig,
                                                        dt):
    with pytest.raises(ConfigError, match="dt must be positive"):
        strichartz_ratio(gauss_spec, gauss_eig, n_sources=1, n_duhamel=1,
                         t_final=0.1, dt=dt)


def test_strichartz_takes_an_empty_stack_of_either_kind(gauss_spec, gauss_eig):
    # the sources are drawn homogeneous first, so dropping the Duhamel
    # sources leaves the homogeneous rows bit for bit
    kwargs = dict(n_sources=2, t_final=0.2, dt=5e-3, stride=5)
    both = strichartz_ratio(gauss_spec, gauss_eig, n_duhamel=2, **kwargs)
    hom = strichartz_ratio(gauss_spec, gauss_eig, n_duhamel=0, **kwargs)
    assert hom.rows == tuple(r for r in both.rows if r.mode == "homogeneous")
    assert len(hom.rows) == 6
    duh = strichartz_ratio(gauss_spec, gauss_eig, n_sources=0, n_duhamel=2,
                           t_final=0.2, dt=5e-3, stride=5)
    assert [(r.mode, r.source) for r in duh.rows] == (
        [("duhamel", 0)] * 3 + [("duhamel", 1)] * 3)
    with pytest.raises(ConfigError, match="at least one source"):
        strichartz_ratio(gauss_spec, gauss_eig, n_sources=0, n_duhamel=0)


def _time_lq(times, series, q):
    """Trapezoid L^q norm of a sample series; the supremum for q = inf."""
    if math.isinf(q):
        return max(series)
    total = sum(0.5 * (tb - ta) * (va**q + vb**q) for ta, tb, va, vb in
                zip(times, times[1:], series, series[1:]))
    return total ** (1.0 / q)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 8.0 / 3.0, math.inf])
def test_time_norm_is_the_trapezoid_norm_of_its_samples(q):
    # uneven spacing, as at the short last interval of a Strichartz scan;
    # each column of a two-column series is its own series
    rng = np.random.default_rng(3)
    times = np.cumsum(rng.uniform(0.01, 0.2, 12))
    series = rng.uniform(0.0, 2.0, (12, 2))
    got = time_norm(times, series, q)
    for k in range(2):
        assert got[k] == pytest.approx(_time_lq(times, series[:, k], q),
                                       rel=1e-14)
    # one sample: no interval to integrate, but it is its own supremum
    assert time_norm(times[:1], series[:1, 0], q) == (
        series[0, 0] if math.isinf(q) else 0.0)


def test_tracked_xnorm_is_the_time_norm_of_its_own_columns(sech_spec,
                                                          sech_eig,
                                                          sech_family):
    bump = from_function(sech_spec.grid, lambda x: np.exp(-((x - 1.0) ** 2)))
    psi = make_field(sech_spec.grid, sech_family.solve(0.05).field.values
                     + 1e-3 * project_continuous(sech_eig.phi0, bump).values)
    traj = evolve(sech_spec, psi, EvolveConfig(dt=1e-3, t_final=0.06,
                                               snapshot_stride=10), 1)
    rep = track(traj, sech_family)
    w_h1, _, h1 = rep.x_norm_eta
    assert w_h1 == pytest.approx(
        _time_lq(rep.times, rep.eta_weighted_h1, 2.0), rel=1e-14)
    assert h1 == _time_lq(rep.times, rep.eta_h1, math.inf)


def _strichartz_oracle(spec, eig, *, pairs, n_sources, n_duhamel, t_final,
                       dt, stride, sigma, seed):
    """(mode, source, q, p, value, reference, ratio) per row, each source
    marched alone by the dense Crank-Nicolson matrix."""
    from magnls.analysis import _localized_source

    g = spec.grid
    rng = np.random.default_rng(seed)
    sources = [_localized_source(spec, eig, rng)
               for _ in range(n_sources + n_duhamel)]
    c = orc.cn_propagator(spec, dt)
    n_steps = round(t_final / dt)
    samples = {n for n in range(1, n_steps + 1)
               if n % stride == 0 or n == n_steps}
    times = [0.0] + [n * dt for n in sorted(samples)]

    def amp(t):
        return math.exp(-((t - 0.5 * t_final) / (t_final / 6.0)) ** 2)

    def rows_of(mode, idx, fields, reference):
        out = []
        for q, p in pairs:
            series = [norm_w1p(make_field(g, u.reshape(g.sizes)), p)
                      for u in fields]
            value = _time_lq(times, series, q)
            out.append((mode, idx, q, p, value, reference, value / reference))
        return out

    rows = []
    for idx, f in enumerate(sources[:n_sources]):
        u = f.values.ravel()
        fields = [u]
        for n in range(1, n_steps + 1):
            u = c @ u
            if n in samples:
                fields.append(u)
        rows += rows_of("homogeneous", idx, fields, norm_l2(f))
    for idx, f in enumerate(sources[n_sources:]):
        fx = f.values.ravel()
        cur = np.zeros_like(fx)
        fields = [cur]
        for n in range(1, n_steps + 1):
            cur = (c @ (cur + 0.5 * dt * amp((n - 1) * dt) * fx)
                   + 0.5 * dt * amp(n * dt) * fx)
            if n in samples:
                fields.append(cur)
        amps = [amp(t) for t in times]
        reference = min(
            _time_lq(times, [a * norm_weighted_h1(f, -sigma) for a in amps],
                     2.0),
            _time_lq(times, [a * norm_h1(f) for a in amps], 1.0))
        rows += rows_of("duhamel", idx, fields, reference)
    return rows


def _loop_16x16():
    g = GridSpec(2, (16, 16), (20.0, 20.0))
    return build_hamiltonian(make_potential_pair(
        build_localized_loop_field(g, 0.3, 1.5, 1.0),
        build_gaussian_well(g, -2.0, 1.0).v))


@pytest.mark.parametrize("backend", ["dense", "krylov"])
def test_strichartz_rows_match_per_source_cn_matrix_marches(backend):
    # the stacked scan against each source marched on its own by the dense
    # CN matrix: u <- C u, and the trapezoid recursion for the Duhamel
    # integral, sampled on the same schedule (the last interval is short)
    if backend == "dense":
        g = GridSpec(1, (64,), (20.0,))
        spec = build_hamiltonian(build_gaussian_well(g, -2.0, 1.0))
        kwargs = dict(n_sources=2, n_duhamel=2, t_final=0.2, dt=5e-3,
                      stride=3, sigma=4.1, seed=3)
    else:
        spec = _loop_16x16()
        kwargs = dict(n_sources=2, n_duhamel=1, t_final=0.1, dt=5e-3,
                      stride=3, sigma=4.1, seed=4)
    assert spec.linear_backend == backend
    eig = ground_state(spec)
    pairs = ((math.inf, 2.0), (3.0, 18.0 / 5.0), (8.0 / 3.0, 4.0))
    report = strichartz_ratio(spec, eig, pairs=pairs, **kwargs)
    expected = _strichartz_oracle(spec, eig, pairs=pairs, **kwargs)
    assert len(report.rows) == len(expected)
    for row, (mode, idx, q, p, value, reference, ratio) in zip(report.rows,
                                                               expected):
        assert (row.mode, row.source, row.q, row.p) == (mode, idx, q, p)
        assert row.value == pytest.approx(value, rel=1e-10)
        assert row.reference == pytest.approx(reference, rel=1e-10)
        assert row.ratio == pytest.approx(ratio, rel=1e-10)


def test_the_duhamel_steps_start_from_their_histories(monkeypatch):
    # each Duhamel row steps from the extrapolation of its own last solves:
    # the rows match a scan whose steps all start from y = 0, in fewer
    # sweeps (on this window 0.58x; the source's time envelope spans 25
    # steps)
    spec = _loop_16x16()
    eig = ground_state(spec)
    kwargs = dict(n_sources=1, n_duhamel=2, t_final=0.3, dt=2e-3, stride=10,
                  seed=4)
    sweeps = []
    richardson = krylov.richardson

    def counted(sweep, start=None, **options):
        def counted_sweep(y):
            sweeps.append(1)
            return sweep(y)
        return richardson(counted_sweep, start, **options)

    monkeypatch.setattr(krylov, "richardson", counted)
    started = strichartz_ratio(spec, eig, **kwargs)
    started_sweeps = len(sweeps)
    sweeps.clear()
    monkeypatch.setattr(hamiltonian, "_cn_start", lambda history: None)
    cold = strichartz_ratio(spec, eig, **kwargs)
    assert started_sweeps < len(sweeps)
    assert len(started.rows) == len(cold.rows) == 9
    for got, want in zip(started.rows, cold.rows):
        assert (got.mode, got.source, got.q, got.p) == \
            (want.mode, want.source, want.q, want.p)
        assert got.value == pytest.approx(want.value, rel=1e-10)
        assert got.ratio == pytest.approx(want.ratio, rel=1e-10)
