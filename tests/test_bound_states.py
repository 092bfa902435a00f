"""Small-amplitude bound-state family: construction, scalings, decay."""

import numpy as np
import pytest

import oracles as orc
from magnls import bound_states, krylov
from magnls import (
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
    _, e1, _ = fixed_point_step(sech_spec, sech_eig, z, zeros(sech_spec.grid), 0.0, 1)
    expected = z * z * norm_lp(sech_eig.phi0, 4.0) ** 4
    assert e1 == pytest.approx(expected, rel=1e-12)
    # focusing flips the sign of the update
    _, e1f, _ = fixed_point_step(sech_spec, sech_eig, z, zeros(sech_spec.grid), 0.0, -1)
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
    # the family's interpolant comes from node solves warm-started along the
    # curve; a cold solve lands on the same state
    warm = sech_family.solve(0.06)
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


@pytest.fixture
def gmres_iterations(monkeypatch):
    """The GMRES iteration count of each ``krylov.gmres`` call, in order."""
    iterations = []
    real_gmres = krylov.gmres

    def counting(matvec, b, *, callback, **options):
        iterations.append(0)

        def count(residual):
            iterations[-1] += 1
            callback(residual)

        return real_gmres(matvec, b, callback=count, **options)

    monkeypatch.setattr(krylov, "gmres", counting)
    return iterations


@pytest.fixture
def sweeps(monkeypatch):
    """Each fixed-point sweep's initial guess and solution, as (x0, w)."""
    calls = []
    real_step = bound_states.fixed_point_step

    def step(*args, x0=None):
        q1, e1, w = real_step(*args, x0=x0)
        calls.append((x0, w))
        return q1, e1, w

    monkeypatch.setattr(bound_states, "fixed_point_step", step)
    return calls


@pytest.fixture
def solved_radii(monkeypatch):
    """|z| of each ``solve_bound_state`` call the family makes, in order."""
    radii = []
    real_solve = bound_states.solve_bound_state

    def counting(spec, eig, z, *args, **kwargs):
        radii.append(abs(z))
        return real_solve(spec, eig, z, *args, **kwargs)

    monkeypatch.setattr(bound_states, "solve_bound_state", counting)
    return radii


def test_a_start_is_the_first_deflated_solves_initial_guess(
        loop_spec_eig, gmres_iterations, sweeps):
    spec, eig = loop_spec_eig
    r = 0.5 * default_z_max(eig)
    kept = solve_bound_state(spec, eig, r, 1)
    start = (kept.correction, kept.e_prime)
    z = r * (1.0 + 1e-6)
    sweeps.clear()
    gmres_iterations.clear()
    solve_bound_state(spec, eig, z, 1, start=start)
    assert np.array_equal(sweeps[0][0], kept.correction.values.ravel())
    warm = gmres_iterations[0]
    gmres_iterations.clear()
    fixed_point_step(spec, eig, z, *start, 1, x0=None)
    assert warm < gmres_iterations[0]


def test_each_sweep_starts_from_the_last_sweeps_unprojected_solution(
        loop_spec_eig, gmres_iterations, sweeps, monkeypatch):
    # the deflated solution keeps a phi0 component on the non-Hermitian loop
    # operator, so the next sweep's GMRES starts from it, not from q
    spec, eig = loop_spec_eig
    z = 0.05
    state = solve_bound_state(spec, eig, z, 1)
    assert state.iterations == len(sweeps) >= 4
    assert sweeps[0][0] is None
    for (_, w), (x0, _) in zip(sweeps, sweeps[1:]):
        assert np.array_equal(x0, w.ravel())
    phi = eig.phi0.values
    assert abs(np.vdot(phi, sweeps[-1][1])) * spec.grid.volume_element > 0.0
    # a start from the projected q left every sweep near 12 of 15 iterations
    cold, *warm = gmres_iterations
    assert all(n < cold for n in warm)
    assert warm[-1] <= cold // 3
    # the fixed point of sweeps that all start cold is the same
    real_step = bound_states.fixed_point_step
    monkeypatch.setattr(bound_states, "fixed_point_step",
                        lambda *args, x0=None: real_step(*args, x0=None))
    reference = solve_bound_state(spec, eig, z, 1)
    gap = (norm_h2(make_field(spec.grid, state.correction.values
                              - reference.correction.values))
           + abs(state.e_prime - reference.e_prime))
    assert gap <= 1e-12 * (1.0 + z)


@pytest.mark.parametrize("sign", [1, -1])
def test_the_interpolant_matches_direct_solves_at_random_r(spec_eig, sign):
    spec, eig = spec_eig
    g = spec.grid
    family = BoundStateFamily(spec, eig, sign)
    top = 0.5 * family.z_max
    family.solve(top)
    rng = np.random.default_rng(11)
    for r, angle in zip(top * rng.uniform(0.0, 1.0, 4),
                        rng.uniform(0.0, 2.0 * np.pi, 4)):
        z = r * np.exp(1j * angle)
        evaluated = family.solve(z)
        direct = solve_bound_state(spec, eig, z, sign)
        assert norm_h2(make_field(g, evaluated.correction.values
                                  - direct.correction.values)) <= 1e-12 * r**3
        assert abs(evaluated.e_prime - direct.e_prime) <= 1e-12 * r**2
        # the residual is the evaluated state's own, as small as the solve's
        assert evaluated.iterations == 0
        assert evaluated.residual == pytest.approx(direct.residual, rel=1e-3,
                                                   abs=1e-13)


@pytest.mark.parametrize("sign", [1, -1])
def test_the_tangents_match_a_richardson_difference_of_direct_solves(
        spec_eig, sign):
    spec, eig = spec_eig
    g = spec.grid
    family = BoundStateFamily(spec, eig, sign)
    z = 0.2 * family.z_max * np.exp(0.7j)
    d = family.derivative_fields(z)

    def direct(w):
        state = solve_bound_state(spec, eig, w, sign)
        return np.append(state.field.values.ravel(), state.energy)

    for unit, tangent, de in ((1.0, d.d1q, d.de[0]), (1j, d.d2q, d.de[1])):
        h = 1e-2 * abs(z)
        diff = [(direct(z + k * h * unit) - direct(z - k * h * unit))
                / (2.0 * k * h) for k in (1, 2)]
        richardson = (4.0 * diff[0] - diff[1]) / 3.0
        exact = np.append(tangent.values.ravel(), de)
        scale = np.linalg.norm(exact)
        # 2e-13 here; a central difference at h alone is 1e-7 off
        assert np.linalg.norm(exact - richardson) <= 1e-11 * scale
    np.testing.assert_array_equal(d.q.values, family.solve(z).field.values)


def test_a_request_beyond_the_span_rebuilds(sech_spec, sech_eig,
                                            solved_radii):
    family = BoundStateFamily(sech_spec, sech_eig, 1)
    family.solve(0.05)
    built = len(solved_radii)
    assert max(solved_radii) == pytest.approx(0.055, rel=1e-12)
    family.derivative_fields(0.054j)
    assert len(solved_radii) == built
    state = family.solve(0.07)
    assert len(solved_radii) > built
    assert max(solved_radii) == pytest.approx(0.077, rel=1e-12)
    direct = solve_bound_state(sech_spec, sech_eig, 0.07, 1)
    assert np.max(np.abs(state.field.values - direct.field.values)) < 1e-14


def test_a_request_beyond_the_ceiling_raises(sech_spec, sech_eig,
                                             solved_radii):
    family = BoundStateFamily(sech_spec, sech_eig, 1)
    z = 1.01j * family.z_max
    for request in (family.solve, family.derivative_fields):
        with pytest.raises(MagnlsError,
                           match="exceeds the contraction ceiling"):
            request(z)
    assert not solved_radii
    # a request just below the ceiling builds up to it and no further
    family.solve(0.99 * family.z_max)
    assert max(solved_radii) == pytest.approx(family.z_max, rel=1e-12)


def test_a_build_that_misses_its_off_node_solve_raises(sech_spec, sech_eig,
                                                       monkeypatch):
    # five nodes on the whole amplitude range leave the interpolant ~1e-11
    # off, more than the fixed-point tolerance allows
    monkeypatch.setattr(bound_states, "_CHOP_TOL", np.inf)
    family = BoundStateFamily(sech_spec, sech_eig, 1)
    with pytest.raises(NonConvergenceError, match="misses a direct solve"):
        family.solve(family.z_max)
    # nothing of the failed build is kept: five nodes do resolve a short span
    state = family.solve(0.05)
    direct = solve_bound_state(sech_spec, sech_eig, 0.05, 1)
    assert np.max(np.abs(state.field.values - direct.field.values)) < 1e-14


def test_phase_rotation_generator_identity(sech_spec, sech_eig, sech_family):
    # compare the family's tangents with central differences of direct
    # solves at complex z
    z = 0.03 + 0.04j
    d = sech_family.derivative_fields(z)
    scale = norm_l2(sech_family.solve(z).field)

    def direct(w):
        return solve_bound_state(sech_spec, sech_eig, w, 1).field.values

    def energy(w):
        return solve_bound_state(sech_spec, sech_eig, w, 1).energy

    h = 1e-4 * abs(z)
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


def test_sweeps_run_out_raise_the_true_count_and_update_size(
        sech_spec, sech_eig, monkeypatch):
    monkeypatch.setattr(bound_states, "_MAX_SWEEPS", 1)
    q1, e1, _ = fixed_point_step(sech_spec, sech_eig, 0.05,
                              zeros(sech_spec.grid), 0.0, 1)
    with pytest.raises(NonConvergenceError) as err:
        solve_bound_state(sech_spec, sech_eig, 0.05, 1)
    assert err.value.iterations == 1
    assert err.value.residual == pytest.approx(norm_h2(q1) + abs(e1),
                                               rel=1e-12)


def test_family_solve_at_zero_is_the_zero_state_and_keeps_nothing(
        sech_spec, sech_eig, solved_radii):
    family = BoundStateFamily(sech_spec, sech_eig, 1)
    state = family.solve(0.0)
    assert state.energy == sech_eig.e0
    assert state.iterations == 0 and state.residual == 0.0
    assert not np.any(state.field.values)
    assert not np.any(state.correction.values)
    d = family.derivative_fields(0.0)
    assert d.energy == sech_eig.e0 and d.de == (0.0, 0.0)
    assert not solved_radii      # the zero state builds nothing


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
