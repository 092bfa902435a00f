"""Small-amplitude bound-state family: construction, scalings, decay."""

import numpy as np
import pytest

import oracles as orc
from magnls import bound_states, krylov
from magnls import (
    BoundState,
    BoundStateFamily,
    ContractionSetViolation,
    GridSpec,
    MagnlsError,
    InsufficientDecayWindow,
    NonConvergenceError,
    apply_h,
    build_gaussian_well,
    build_hamiltonian,
    build_localized_loop_field,
    decay_fit,
    default_z_max,
    fixed_point_step,
    ground_state,
    make_field,
    make_potential_pair,
    norm_h2,
    norm_l2,
    norm_lp,
    solve_bound_state,
    zeros,
)


def test_first_sweep_energy_slope_closed_form(sech_spec, sech_eig):
    """One application of the map from (0, 0) has a known frequency update."""
    z = 0.05
    _, e1 = fixed_point_step(sech_spec, sech_eig, z, zeros(sech_spec.grid), 0.0, 1)
    expected = z * z * norm_lp(sech_eig.phi0, 4.0) ** 4
    assert e1 == pytest.approx(expected, rel=1e-12)
    # focusing flips the sign of the update
    _, e1f = fixed_point_step(sech_spec, sech_eig, z, zeros(sech_spec.grid), 0.0, -1)
    assert e1f == pytest.approx(-expected, rel=1e-12)


def test_bound_state_solves_the_nonlinear_eigenproblem(sech_spec, sech_eig,
                                                       sech_family):
    state = sech_family.solve(0.05)
    psi = state.field
    e_total = state.energy
    residual = (apply_h(sech_spec, psi).values
                + np.abs(psi.values) ** 2 * psi.values
                - e_total * psi.values)
    assert norm_l2(make_field(sech_spec.grid, residual)) < 1e-9
    assert state.residual < 1e-9


def test_matches_dense_newton_oracle(magnetic_spec, magnetic_eig):
    z = 0.05
    state = solve_bound_state(magnetic_spec, magnetic_eig, z, 1)
    e_dense, phi_dense = orc.dense_ground_state(magnetic_spec)
    q_dense, ep_dense = orc.dense_bound_state(
        magnetic_spec, phi_dense, e_dense, z, 1)
    assert abs(state.e_prime - ep_dense) < 1e-10
    assert np.max(np.abs(state.correction.values - q_dense)) < 1e-8


def test_amplitude_scalings(sech_family):
    zs = np.array([0.02, 0.04, 0.08])
    qs = [norm_h2(sech_family.solve(z).correction) for z in zs]
    eps = [abs(sech_family.solve(z).e_prime) for z in zs]
    slope_q = np.polyfit(np.log(zs), np.log(qs), 1)[0]
    slope_e = np.polyfit(np.log(zs), np.log(eps), 1)[0]
    assert slope_q == pytest.approx(3.0, abs=0.1)
    assert slope_e == pytest.approx(2.0, abs=0.1)


def test_gauge_equivariance_of_the_family(sech_spec, sech_eig, sech_family,
                                          magnetic_spec, magnetic_eig):
    # the family solves |z| and rotates; a cold solve at the complex z itself
    # must land on the same state, also where A != 0 makes q complex
    z = 0.04 * np.exp(0.7j)
    for spec, eig, family in (
            (sech_spec, sech_eig, sech_family),
            (magnetic_spec, magnetic_eig,
             BoundStateFamily(magnetic_spec, magnetic_eig, 1))):
        rotated = family.solve(z)
        direct = solve_bound_state(spec, eig, z, 1)
        diff = rotated.field.values - direct.field.values
        assert np.max(np.abs(diff)) < 1e-12
        assert rotated.energy == pytest.approx(direct.energy, abs=1e-12)


def test_contraction_ceiling_is_enforced(sech_spec, sech_eig):
    ceiling = default_z_max(sech_eig)
    with pytest.raises(MagnlsError):
        solve_bound_state(sech_spec, sech_eig, 2.0 * ceiling, 1)
    with pytest.raises(MagnlsError):
        fixed_point_step(sech_spec, sech_eig, 0.05, zeros(sech_spec.grid), 0.0, 2)


def test_invariant_set_violation_is_detected(sech_spec, sech_eig):
    # feed the map a correction far too large for the amplitude
    big = make_field(sech_spec.grid, 0.5 * sech_eig.phi0.values)
    with pytest.raises(ContractionSetViolation):
        fixed_point_step(sech_spec, sech_eig, 0.01, big, 0.0, 1)


def test_warm_and_cold_starts_agree(sech_spec, sech_eig, sech_family):
    warm = sech_family.solve(0.06)   # family reuses the nearest cached state
    cold = solve_bound_state(sech_spec, sech_eig, 0.06, 1)
    assert np.max(np.abs(warm.field.values - cold.field.values)) < 1e-11
    assert warm.e_prime == pytest.approx(cold.e_prime, abs=1e-12)


@pytest.fixture(scope="module")
def loop_spec_eig():
    """A 16 x 16 loop field: the Krylov backend."""
    g = GridSpec(2, (16, 16), (20.0, 20.0))
    spec = build_hamiltonian(make_potential_pair(
        build_localized_loop_field(g, 0.3, 1.5, 1.0),
        build_gaussian_well(g, -2.0, 1.0).v))
    return spec, ground_state(spec)


@pytest.fixture(params=["dense", "krylov"])
def spec_eig(request, sech_spec, sech_eig):
    if request.param == "dense":
        return sech_spec, sech_eig
    return request.getfixturevalue("loop_spec_eig")


@pytest.mark.parametrize("delta", [1e-10, 5e-6])
def test_a_predicted_start_reaches_the_cold_fixed_point_in_fewer_sweeps(
        spec_eig, delta):
    # as in a decompose frame: r and r +- h are kept, then r + delta is
    # asked for; along a run delta is about 1e-10, and 5e-6 is under h / 2
    spec, eig = spec_eig
    family = BoundStateFamily(spec, eig, 1)
    r = 0.5 * family.z_max
    assert delta < family.derivative_fields(r).step / 2
    z = r + delta
    warm = family.solve(z)
    cold = solve_bound_state(spec, eig, z, 1)
    kept = family.solve(r)
    nearest = solve_bound_state(spec, eig, z, 1,
                                start=(kept.correction, kept.e_prime))
    gap = (norm_h2(make_field(spec.grid, warm.correction.values
                              - cold.correction.values))
           + abs(warm.e_prime - cold.e_prime))
    assert gap <= 1e-12 * (1.0 + z)
    assert warm.iterations < nearest.iterations < cold.iterations


def test_a_start_is_the_first_deflated_solves_initial_guess(
        loop_spec_eig, monkeypatch):
    spec, eig = loop_spec_eig
    r = 0.5 * default_z_max(eig)
    kept = solve_bound_state(spec, eig, r, 1)
    start = (kept.correction, kept.e_prime)
    z = r * (1.0 + 1e-6)
    iterations = []          # GMRES iterations of each krylov.solve
    real_gmres = krylov.gmres

    def counting(matvec, b, *, callback, **options):
        iterations.append(0)

        def count(residual):
            iterations[-1] += 1
            callback(residual)

        return real_gmres(matvec, b, callback=count, **options)

    guesses = []
    real_step = bound_states.fixed_point_step

    def step(*args, x0=None):
        guesses.append(x0)
        return real_step(*args, x0=x0)

    monkeypatch.setattr(krylov, "gmres", counting)
    monkeypatch.setattr(bound_states, "fixed_point_step", step)
    solve_bound_state(spec, eig, z, 1, start=start)
    assert np.array_equal(guesses[0], kept.correction.values.ravel())
    warm = iterations[0]
    iterations.clear()
    real_step(spec, eig, z, *start, 1, x0=None)
    assert warm < iterations[0]


def test_phase_rotation_generator_identity(sech_spec, sech_eig, sech_family):
    # the family's tangents come from the real curve; compare them with
    # central differences of direct solves at complex z
    z = 0.03 + 0.04j
    d = sech_family.derivative_fields(z)
    scale = norm_l2(sech_family.solve(z).field)

    def direct(w):
        return solve_bound_state(sech_spec, sech_eig, w, 1).field.values

    def energy(w):
        return solve_bound_state(sech_spec, sech_eig, w, 1).energy

    h = d.step
    de = ((energy(z + h) - energy(z - h)) / (2.0 * h),
          (energy(z + 1j * h) - energy(z - 1j * h)) / (2.0 * h))
    assert d.de == pytest.approx(de, abs=1e-9)
    d1 = (direct(z + h) - direct(z - h)) / (2.0 * h)
    d2 = (direct(z + 1j * h) - direct(z - 1j * h)) / (2.0 * h)
    g = sech_spec.grid
    for tangent, reference in ((d.d1q, d1), (d.d2q, d2)):
        assert norm_l2(make_field(g, tangent.values - reference)) < 1e-5 * scale
    identity = d1 * (-z.imag) + d2 * z.real - 1j * direct(z)
    assert norm_l2(make_field(g, identity)) < 1e-5 * scale
    # the same identity for the tangents the family computed
    identity = (d.d1q.values * (-z.imag) + d.d2q.values * z.real
                - 1j * d.q.values)
    assert norm_l2(make_field(g, identity)) < 1e-5 * scale


def test_tangents_at_zero_are_the_ground_state_limits(sech_eig, sech_family):
    phi = sech_eig.phi0.values
    for z in (0.0, 1e-6 * np.exp(0.3j)):
        d = sech_family.derivative_fields(z)
        assert np.max(np.abs(d.d1q.values - phi)) < 1e-8
        assert np.max(np.abs(d.d2q.values - 1j * phi)) < 1e-8


def test_family_memory_is_bounded_by_bytes(sech_spec, sech_eig, monkeypatch):
    budget = 3 * sech_eig.phi0.values.nbytes
    monkeypatch.setattr(bound_states, "_CACHE_BYTES", budget)
    solved = []
    real_solve = bound_states.solve_bound_state

    def counting(*args, **kwargs):
        solved.append(args[2])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(bound_states, "solve_bound_state", counting)
    family = BoundStateFamily(sech_spec, sech_eig, 1)
    first = family.solve(0.02)
    for r in (0.03, 0.04, 0.05, 0.06):
        family.solve(r)
        assert 0 < family.stored_bytes <= budget
    # the amplitudes farthest from the last request went first
    family.solve(0.05)
    assert solved == [0.02, 0.03, 0.04, 0.05, 0.06]
    again = family.solve(0.02)
    assert solved[-1] == 0.02
    assert family.stored_bytes <= budget
    assert np.max(np.abs(again.field.values - first.field.values)) < 1e-11


def test_sweeps_run_out_raise_the_true_count_and_update_size(
        sech_spec, sech_eig, monkeypatch):
    monkeypatch.setattr(bound_states, "_MAX_SWEEPS", 1)
    q1, e1 = fixed_point_step(sech_spec, sech_eig, 0.05,
                              zeros(sech_spec.grid), 0.0, 1)
    with pytest.raises(NonConvergenceError) as err:
        solve_bound_state(sech_spec, sech_eig, 0.05, 1)
    assert err.value.iterations == 1
    assert err.value.residual == pytest.approx(norm_h2(q1) + abs(e1),
                                               rel=1e-12)


def test_family_solve_at_zero_is_the_zero_state_and_keeps_nothing(
        sech_spec, sech_eig):
    family = BoundStateFamily(sech_spec, sech_eig, 1)
    family.solve(0.02)
    kept = family.stored_bytes
    state = family.solve(0.0)
    assert state.energy == sech_eig.e0
    assert state.iterations == 0 and state.residual == 0.0
    assert not np.any(state.field.values)
    assert not np.any(state.correction.values)
    assert family.stored_bytes == kept


@pytest.fixture
def marked_solves(sech_spec, monkeypatch):
    """Replace the fixed-point solve by a stub whose state at r has the
    constant correction r^2 and e' = r^2, and record each call as (r, e' of
    its start or None).  e' is nonlinear in r, so the start tells which kept
    radii it was predicted from."""
    calls = []
    g = sech_spec.grid

    def stub(spec, eig, r, sign, *, start=None):
        if start is not None:
            # the correction is predicted with the same weights as e'
            assert np.all(start[0].values == start[1])
        calls.append((r, None if start is None else start[1]))
        q = make_field(g, np.full(g.sizes, r * r))
        return BoundState(z=r, field=q, correction=q, e_prime=r * r,
                          energy=0.0, sign=sign, iterations=1, residual=0.0)

    monkeypatch.setattr(bound_states, "solve_bound_state", stub)
    return calls


# r and r +- d are exact binary fractions, so distances tie exactly and
# every predicted start below is exact
R, D = 0.0625, 0.00390625


def test_family_starts_from_the_secant_through_the_nearest_kept_radii(
        sech_spec, sech_eig, marked_solves):
    family = BoundStateFamily(sech_spec, sech_eig, 1)
    for r in (R - D, R + D, R, R + D / 4, 0.2):
        family.solve(r)
    assert marked_solves == [
        (R - D, None),
        # a = R - D, and no other kept radius: a alone
        (R + D, (R - D) ** 2),
        # a = R - D (a tie: the smaller), b = R + D, t = 1/2
        (R, R**2 + D**2),
        # a = R; b = R - D (a tie with R + D: the smaller), t = -1/4
        (R + D / 4, R**2 - ((R - D) ** 2 - R**2) / 4),
        (0.2, None),                # nothing kept within 0.5 r
    ]


def test_family_never_extrapolates_a_close_pair_beyond_it(
        sech_spec, sech_eig, marked_solves):
    family = BoundStateFamily(sech_spec, sech_eig, 1)
    for r in (R, R + D / 4, R - D):
        family.solve(r)
    # a = R; R + D / 4 is nearer a than R - D is (|t| would be 4): a alone
    assert marked_solves[-1] == (R - D, R**2)


def test_family_evicts_the_radius_farthest_from_the_last_request(
        sech_spec, sech_eig, marked_solves, monkeypatch):
    monkeypatch.setattr(bound_states, "_CACHE_BYTES",
                        2 * zeros(sech_spec.grid).values.nbytes)
    family = BoundStateFamily(sech_spec, sech_eig, 1)
    for r in (R - D, R + D, R):
        family.solve(r)
    # R - D and R + D tie as farthest from R: the smaller went
    assert [r for r, _ in marked_solves] == [R - D, R + D, R]
    family.solve(R + D)
    family.solve(R)
    assert len(marked_solves) == 3
    family.solve(R - D)
    # then R + D, farthest from R - D, went
    family.solve(R)
    assert len(marked_solves) == 4
    family.solve(R + D)
    assert [r for r, _ in marked_solves] == [R - D, R + D, R, R - D, R + D]


def test_decay_rate_tracks_the_linear_rate(sech_family):
    state = sech_family.solve(0.01)
    fit = decay_fit(state.field)
    assert fit.beta == pytest.approx(1.0, rel=0.2)
    assert fit.r_squared > 0.99
    assert fit.beta > 0


def test_decay_fit_needs_a_usable_window(sech_spec, sech_eig):
    tiny = make_field(sech_spec.grid, 1e-12 * sech_eig.phi0.values)
    with pytest.raises(InsufficientDecayWindow):
        decay_fit(tiny)
