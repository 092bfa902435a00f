"""Time integrator: phase accuracy, unitarity, conservation, reversibility."""

import numpy as np
import pytest

import oracles as orc
from magnls import evolution, hamiltonian, krylov
from magnls import (
    BoundStateFamily,
    ConfigError,
    ConservationBreach,
    EvolveConfig,
    GridSpec,
    MagnlsError,
    Trajectory,
    build_gaussian_well,
    build_hamiltonian,
    build_localized_loop_field,
    energy_functional,
    evolve,
    from_function,
    gaussian_bump,
    ground_state,
    linear_flow,
    make_field,
    make_potential_pair,
    norm_h1,
    norm_l2,
    project_continuous,
    step,
    wrap_around_estimate,
    zero_vector_field,
    zeros,
)


def free_spec(n=64, length=16.0 * np.pi):
    g = GridSpec(1, (n,), (length,))
    return build_hamiltonian(make_potential_pair(zero_vector_field(g), zeros(g)))


@pytest.fixture(scope="module")
def loop_spec():
    """A 16 x 16 loop field: the Krylov backend, whose CN steps are
    Richardson solves."""
    g = GridSpec(2, (16, 16), (20.0, 20.0))
    spec = build_hamiltonian(make_potential_pair(
        build_localized_loop_field(g, 0.3, 1.5, 1.0),
        build_gaussian_well(g, -2.0, 1.0).v))
    assert spec.linear_backend == "krylov"
    return spec


def test_linear_step_phase_error_is_third_order():
    # single mode with k = 2: one step multiplies by the (2,2) Pade factor of
    # exp(-i k^2 dt), so the phase defect obeys the (k^2 dt)^3 / 12 law
    spec = free_spec()
    g = spec.grid
    k = 2.0
    psi = from_function(g, lambda x: np.exp(1j * k * x))
    dt = 0.005
    out = step(spec, psi, dt, 0)
    exact = np.exp(-1j * k * k * dt) * psi.values
    defect = np.max(np.abs(out.values - exact))
    law = (k * k * dt) ** 3 / 12.0
    assert defect < 1e-6
    assert defect == pytest.approx(law, rel=0.05)
    # and the step itself reproduces the closed-form rational factor sharply
    pade = (1 - 0.5j * k * k * dt) / (1 + 0.5j * k * k * dt)
    assert np.max(np.abs(out.values - pade * psi.values)) < 1e-10


def test_step_agrees_with_dense_propagator(magnetic_spec):
    g = magnetic_spec.grid
    rng = np.random.default_rng(41)
    psi = make_field(g, rng.standard_normal(g.sizes) + 1j * rng.standard_normal(g.sizes))
    dense = orc.cn_propagator(magnetic_spec, 0.01)
    expected = (dense @ psi.values.ravel()).reshape(g.sizes)
    got = step(magnetic_spec, psi, 0.01, 0)
    assert np.max(np.abs(got.values - expected)) < 1e-11


def test_step_is_unitary_and_reversible(magnetic_spec):
    # unitarity of the linear substep rests on hermiticity of H, which the
    # collocation scheme only delivers on resolved fields: band-limit the probe
    g = magnetic_spec.grid
    rng = np.random.default_rng(42)
    coeff = np.zeros(g.sizes, dtype=np.complex128)
    n = g.sizes[0]
    idx = np.r_[0:8, n - 8:n]
    coeff[idx] = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi = make_field(g, np.fft.ifftn(coeff))
    fwd = step(magnetic_spec, psi, 0.02, 1)
    assert norm_l2(fwd) == pytest.approx(norm_l2(psi), rel=1e-11)
    back = step(magnetic_spec, fwd, -0.02, 1)
    assert np.max(np.abs(back.values - psi.values)) < 1e-10 * np.max(np.abs(psi.values))


def test_step_rejects_large_dt(magnetic_spec):
    psi = zeros(magnetic_spec.grid)
    with pytest.raises(MagnlsError):
        step(magnetic_spec, psi, 0.2, 1)


def test_eigenmode_acquires_the_right_phase(sech_spec, sech_eig):
    out = linear_flow(sech_spec, sech_eig.phi0, 1.0, dt=1e-3)
    exact = np.exp(-1j * sech_eig.e0 * 1.0) * sech_eig.phi0.values
    assert np.max(np.abs(out.values - exact)) < 1e-6


def test_free_packet_matches_fourier_solution():
    spec = free_spec(n=128, length=80.0)
    g = spec.grid
    psi0 = from_function(g, lambda x: np.exp(-(x**2) / 8.0 + 0.5j * x))
    t = 0.5
    out = linear_flow(spec, psi0, t, dt=1e-3)
    k = g.k_mesh[0]
    exact = np.fft.ifftn(np.exp(-1j * k * k * t) * np.fft.fftn(psi0.values))
    assert np.max(np.abs(out.values - exact)) < 1e-5


def test_strang_order_two(sech_spec, sech_eig):
    psi0 = make_field(sech_spec.grid, 0.1 * sech_eig.phi0.values)
    t = 0.4

    def err(dt):
        cfg = EvolveConfig(dt=dt, t_final=t, snapshot_stride=10**6)
        coarse = evolve(sech_spec, psi0, cfg, 1).final_state
        fine = linear_ref[0]
        return norm_l2(make_field(sech_spec.grid,
                                  coarse.values - fine.values))

    cfg_ref = EvolveConfig(dt=1e-4, t_final=t, snapshot_stride=10**6)
    linear_ref = [evolve(sech_spec, psi0, cfg_ref, 1).final_state]
    e1, e2 = err(8e-3), err(4e-3)
    assert e1 / e2 == pytest.approx(4.0, rel=0.15)


def oracle_strang_snapshots(spec, psi0, dt, n_steps, stride, sign):
    """The unjoined Strang composition P(dt/2) C(dt) P(dt/2), with the dense
    oracle's Crank-Nicolson matrix C, at every step ``evolve`` records."""
    prop = orc.cn_propagator(spec, dt)

    def half_phase(v):
        return v * np.exp(-0.5j * sign * dt * np.abs(v) ** 2)

    values = psi0.values.ravel()
    snaps = [values]
    for n in range(1, n_steps + 1):
        values = half_phase(prop @ half_phase(values))
        if n % stride == 0 or n == n_steps:
            snaps.append(values)
    return [v.reshape(psi0.grid.sizes) for v in snaps]


@pytest.mark.parametrize("sign", [1, -1, 0])
@pytest.mark.parametrize("name", ["sech_spec", "magnetic_spec", "loop_spec"])
def test_evolve_matches_the_oracle_strang_composition(name, sign, request):
    # the dense and the Krylov backend, in 1D and on the 2D loop, where each
    # step after the first starts from the extrapolation of the earlier
    # ones; a stride that does not divide the step count, so the last
    # snapshot closes a partial stride
    spec = request.getfixturevalue(name)
    psi0 = gaussian_bump(spec.grid, 1.5, 2.0)
    dt, n_steps, stride = 5e-3, 13, 5
    # the collocated loop H drifts this bump's mass by 1.4e-6 within five
    # steps; the monitor is not what this test checks
    conserve_tol = 1e-3 if name == "loop_spec" else 1e-6
    traj = evolve(spec, psi0, EvolveConfig(dt=dt, t_final=n_steps * dt,
                                           snapshot_stride=stride,
                                           conserve_tol=conserve_tol), sign)
    want = oracle_strang_snapshots(spec, psi0, dt, n_steps, stride, sign)
    assert np.allclose(traj.times, dt * np.array([0, 5, 10, 13]))
    assert len(traj.snapshots) == len(want)
    for got, ref in zip(traj.snapshots, want):
        gap = np.max(np.abs(got.values - ref)) / np.max(np.abs(ref))
        assert gap <= 1e-12


def test_a_stack_matches_the_oracle_strang_composition(sech_spec):
    states = [gaussian_bump(sech_spec.grid, a, 2.0) for a in (1.5, 0.75)]
    dt, n_steps, stride = 5e-3, 13, 5
    trajs = evolve(sech_spec, states, EvolveConfig(
        dt=dt, t_final=n_steps * dt, snapshot_stride=stride), 1)
    for psi0, traj in zip(states, trajs):
        want = oracle_strang_snapshots(sech_spec, psi0, dt, n_steps, stride, 1)
        assert len(traj.snapshots) == len(want)
        for got, ref in zip(traj.snapshots, want):
            gap = np.max(np.abs(got.values - ref)) / np.max(np.abs(ref))
            assert gap <= 1e-12


def assert_same_run(got, want):
    """A state of a stacked ``evolve`` against its single-state run: the
    same trajectory bit for bit, or the same breach."""
    if isinstance(want, ConservationBreach):
        assert isinstance(got, ConservationBreach)
        assert (got.args, got.quantity, got.drift) == \
            (want.args, want.quantity, want.drift)
        return
    assert len(got.snapshots) == len(want.snapshots)
    for a, b in zip(got.snapshots, want.snapshots):
        assert np.array_equal(a.values, b.values)
    for name in ("times", "mass", "energy", "h1"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.energy_scale, got.wrap_around, got.warnings) == \
        (want.energy_scale, want.wrap_around, want.warnings)


def run_singly(spec, psi0, cfg):
    try:
        return evolve(spec, psi0, cfg, 1)
    except ConservationBreach as exc:
        return exc


@pytest.mark.parametrize("k", [2, 3])
def test_a_dense_stack_equals_its_states_run_singly(gauss_spec, k):
    assert gauss_spec.linear_backend == "dense"
    states = [gaussian_bump(gauss_spec.grid, a, 2.0)
              for a in (0.5, 1.0, 1.5)[:k]]
    cfg = EvolveConfig(dt=5e-3, t_final=0.5, snapshot_stride=7)
    trajs = evolve(gauss_spec, states, cfg, 1)
    assert len(trajs) == k
    for psi0, traj in zip(states, trajs):
        assert_same_run(traj, run_singly(gauss_spec, psi0, cfg))


def test_a_krylov_stack_equals_its_states_run_singly(loop_spec):
    states = [gaussian_bump(loop_spec.grid, a, 3.0) for a in (0.5, 1.0)]
    cfg = EvolveConfig(dt=1e-3, t_final=0.02, snapshot_stride=7,
                       conserve_tol=1e-3)
    for psi0, traj in zip(states, evolve(loop_spec, states, cfg, 1)):
        assert_same_run(traj, run_singly(loop_spec, psi0, cfg))


def test_a_breached_state_leaves_the_stack_and_the_others_go_on(gauss_spec):
    # at this tolerance the energy drift of the 1.5 bump breaches, that of
    # the two smaller bumps stays at least 2.5x below its limit
    states = [gaussian_bump(gauss_spec.grid, a, 2.0) for a in (0.1, 1.5, 0.2)]
    cfg = EvolveConfig(dt=1e-2, t_final=0.3, snapshot_stride=10,
                       conserve_tol=1e-8)
    trajs = evolve(gauss_spec, states, cfg, 1)
    assert [isinstance(t, ConservationBreach) for t in trajs] == \
        [False, True, False]
    assert trajs[1].quantity == "energy_drift"
    assert trajs[2].times[-1] == pytest.approx(0.3)
    for psi0, traj in zip(states, trajs):
        assert_same_run(traj, run_singly(gauss_spec, psi0, cfg))


def test_a_breached_krylov_state_leaves_the_stack_with_its_history(
        loop_spec):
    # the energy drift of the 3.0 bump breaches at t = 0.15; the mass and
    # energy drifts of the other two stay at least 1.9x below their limits.
    # Each row starts its steps from its own solve history, so the
    # survivors equal their single runs bit for bit only if the histories
    # leave the stack with their rows
    states = [gaussian_bump(loop_spec.grid, a, 1.5) for a in (0.5, 3.0, 1.0)]
    cfg = EvolveConfig(dt=1e-2, t_final=0.2, snapshot_stride=5,
                       conserve_tol=1.5e-5)
    trajs = evolve(loop_spec, states, cfg, 1)
    assert [isinstance(t, ConservationBreach) for t in trajs] == \
        [False, True, False]
    assert trajs[1].quantity == "energy_drift"
    assert trajs[1].args[0].endswith("at t = 0.15")
    assert trajs[2].times[-1] == pytest.approx(0.2)
    for psi0, traj in zip(states, trajs):
        assert_same_run(traj, run_singly(loop_spec, psi0, cfg))


def richardson_sweeps(monkeypatch, spec, psi0, cfg, *, cold):
    """The final state of ``evolve`` and the sweeps of its CN solves, each
    an application of the sweep map y -> b - K y, the one at y = 0 that
    forms b included; ``cold`` takes every solve from y = 0, as without a
    history."""
    sweeps = []
    richardson = krylov.richardson

    def counted(sweep, start=None, **kwargs):
        def counted_sweep(y):
            sweeps.append(1)
            return sweep(y)
        return richardson(counted_sweep, start, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(krylov, "richardson", counted)
        if cold:
            patch.setattr(hamiltonian, "_cn_start", lambda history: None)
        final = evolve(spec, psi0, cfg, 1).final_state.values
    return final, len(sweeps)


def rough_state(grid):
    rng = np.random.default_rng(8)
    return make_field(grid, 0.5 * (rng.standard_normal(grid.sizes)
                                   + 1j * rng.standard_normal(grid.sizes)))


@pytest.mark.parametrize("state, dt, t_final, most", [
    ("smooth", 1e-3, 0.05, 0.6),
    ("rough", 5e-3, 0.1, 1.0),
    ("rough", 2e-2, 0.4, 1.0)])
def test_started_steps_take_fewer_sweeps_and_reach_the_cold_states(
        loop_spec, monkeypatch, state, dt, t_final, most):
    # a smooth state at the benchmark's dt takes at most 0.6x the sweeps of
    # cold starts (62 against 250); a rough one, whose right-hand sides
    # extrapolate badly, takes no more, at a moderate and a long step (69
    # against 120, 108 against 160)
    g = loop_spec.grid
    psi0 = gaussian_bump(g, 1.0, 3.0) if state == "smooth" else rough_state(g)
    cfg = EvolveConfig(dt=dt, t_final=t_final, snapshot_stride=10,
                       conserve_tol=0.1)
    cold, cold_sweeps = richardson_sweeps(monkeypatch, loop_spec, psi0, cfg,
                                          cold=True)
    warm, warm_sweeps = richardson_sweeps(monkeypatch, loop_spec, psi0, cfg,
                                          cold=False)
    assert cold_sweeps >= 2 * evolution.whole_steps(t_final, dt)
    assert warm_sweeps <= most * cold_sweeps
    assert np.max(np.abs(warm - cold)) <= 1e-13 * np.max(np.abs(cold))


def test_a_perturbed_bound_state_takes_about_one_sweep_a_step(loop_spec,
                                                              monkeypatch):
    # Q[z] + a b as stability_sweep builds it, at the benchmark's dt, z and
    # amplitude: its 200 steps take 211 sweeps (1.05 a step, the first
    # step's from y = 0 included) from the extrapolation of six solves and
    # the stop on q ||r|| <= tol times a lower bound on ||b||; four solves
    # and the stop on ||r|| <= tol ||b|| took 407 (2.04).  Each step sweeps
    # at least once.  On this non-Hermitian 16 x 16 H the mass drifts by
    # 7.3e-6, the energy by 8.1e-5.
    g = loop_spec.grid
    family = BoundStateFamily(loop_spec, ground_state(loop_spec), 1)
    bump = project_continuous(family.eig.phi0, gaussian_bump(g, 1.0, 2.0))
    bump = make_field(g, bump.values / norm_h1(bump))
    psi0 = make_field(g, family.solve(0.05).field.values + 2e-3 * bump.values)
    cfg = EvolveConfig(dt=1e-3, t_final=0.2, snapshot_stride=200,
                       conserve_tol=1e-3)
    _, sweeps = richardson_sweeps(monkeypatch, loop_spec, psi0, cfg,
                                  cold=False)
    steps = evolution.whole_steps(cfg.t_final, cfg.dt)
    assert steps <= sweeps <= 1.1 * steps


def test_evolve_rejects_a_partial_step(sech_spec, sech_eig):
    with pytest.raises(ConfigError, match="whole number of steps"):
        evolve(sech_spec, sech_eig.phi0, EvolveConfig(dt=0.1, t_final=0.55), 1)


@pytest.mark.parametrize("change, message", [
    ({"t_final": 0.05}, "t_final must be at least dt = 0.1"),
    ({"snapshot_stride": 0}, "snapshot_stride must be >= 1, got 0"),
    ({"conserve_tol": 0.0}, "conserve_tol must be positive, got 0.0"),
])
def test_evolve_config_rejects_a_window_stride_or_tolerance(change, message):
    with pytest.raises(MagnlsError, match=message):
        EvolveConfig(**{"dt": 0.1, "t_final": 0.5, **change})


def test_evolve_rejects_an_empty_sequence_of_initial_states(sech_spec):
    with pytest.raises(MagnlsError, match="empty sequence of initial states"):
        evolve(sech_spec, [], EvolveConfig(dt=0.1, t_final=0.5), 1)


def test_conservation_monitors_trip_on_drift(sech_spec, sech_eig):
    psi0 = make_field(sech_spec.grid, 0.5 * sech_eig.phi0.values)
    cfg = EvolveConfig(dt=5e-2, t_final=3.0, snapshot_stride=5,
                       conserve_tol=1e-15)
    with pytest.raises(ConservationBreach):
        evolve(sech_spec, psi0, cfg, 1)


def test_trajectory_bookkeeping(sech_spec, sech_eig):
    psi0 = make_field(sech_spec.grid, 0.05 * sech_eig.phi0.values)
    cfg = EvolveConfig(dt=1e-2, t_final=0.55, snapshot_stride=10)
    traj = evolve(sech_spec, psi0, cfg, 1)
    # t_final not a multiple of dt*stride: the run rounds to whole steps
    assert traj.times[-1] == pytest.approx(0.55, abs=1e-2 + 1e-12)
    assert len(traj.times) == len(traj.snapshots)
    assert traj.mass[0] == pytest.approx(norm_l2(psi0) ** 2, rel=1e-12)
    drift = abs(traj.mass[-1] - traj.mass[0]) / traj.mass[0]
    assert drift < 1e-10
    e0 = traj.energy[0]
    assert energy_functional(sech_spec, psi0, 1) == pytest.approx(e0, rel=1e-12)
    rel_e = abs(traj.energy[-1] - e0) / max(abs(e0), 1e-300)
    assert rel_e < 1e-8


class _CountingNumpy:
    """numpy, counting the calls that build an array from a sequence."""

    BUILDERS = ("array", "asarray", "asanyarray", "fromiter", "stack",
                "concatenate")

    def __init__(self):
        self.builds = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.BUILDERS:
            return attr

        def build(*args, **kwargs):
            self.builds += 1
            return attr(*args, **kwargs)

        return build


def test_a_snapshot_tests_its_drifts_without_building_arrays(
        sech_spec, sech_eig, monkeypatch):
    # the drift test of each snapshot is O(1): no array of the series is
    # built per record, and the drifts equal the maxima over the finished
    # series bit for bit; the wobble puts the largest excursion mid-run
    cfg = EvolveConfig(dt=1e-2, t_final=0.4, snapshot_stride=1,
                       conserve_tol=1.0)
    psi0 = make_field(sech_spec.grid, 0.5 * sech_eig.phi0.values)
    moved = step(sech_spec, psi0, cfg.dt, 1).values
    frames = [(1.0 + 1e-3 * np.sin(1.7 * n)) * moved for n in range(1, 41)]
    counting = _CountingNumpy()
    monkeypatch.setattr(evolution, "np", counting)
    traj = Trajectory.start(sech_spec, psi0, cfg, 1)
    for n, values in enumerate(frames, start=1):
        traj.record(sech_spec, n * cfg.dt, values, cfg, 1)
        assert counting.builds == 0
    monkeypatch.undo()
    traj.finish()
    mass, energy = traj.mass, traj.energy
    assert np.argmax(np.abs(mass - mass[0])) < len(mass) - 1
    assert traj.mass_drift == float(np.max(np.abs(mass - mass[0]))) / mass[0]
    assert traj.energy_drift == (float(np.max(np.abs(energy - energy[0])))
                                 / traj.energy_scale)


def test_evolve_warns_when_the_window_outlasts_the_wrap_around_estimate():
    spec = free_spec(n=64, length=8.0)
    g = spec.grid
    slow = from_function(g, lambda x: 0.1 * np.exp(-(x**2)))
    fast = from_function(g, lambda x: 0.1 * np.exp(-(x**2) + 3.0j * x))
    est = wrap_around_estimate(fast)
    assert est < 1.0 < wrap_around_estimate(slow)
    cfg = EvolveConfig(dt=0.05, t_final=1.0, snapshot_stride=5)
    quiet, loud = evolve(spec, [slow, fast], cfg, 0)
    assert quiet.warnings == ()
    assert loud.wrap_around == est
    assert loud.warnings == (
        f"window 1 exceeds the wrap-around estimate {est:.3g}; "
        "late-time tails recirculate",)


@pytest.mark.parametrize("dt, t_final, stride, frames", [
    (1e-2, 0.55, 10, 7), (5e-2, 0.5, 5, 3), (5e-2, 0.5, 1, 11),
    (5e-2, 0.5, 20, 2)])
def test_config_counts_the_frames_evolve_records(dt, t_final, stride, frames):
    spec = free_spec()
    cfg = EvolveConfig(dt=dt, t_final=t_final, snapshot_stride=stride)
    traj = evolve(spec, gaussian_bump(spec.grid, 0.1, 2.0), cfg, 0)
    assert cfg.frames == len(traj.times) == len(traj.snapshots) == frames


def test_wrap_estimate_scales_with_group_velocity():
    spec = free_spec(n=128, length=80.0)
    g = spec.grid
    slow = from_function(g, lambda x: np.exp(-(x**2) / 4.0))
    fast = from_function(g, lambda x: np.exp(-(x**2) / 4.0 + 3.0j * x))
    assert wrap_around_estimate(fast) < wrap_around_estimate(slow)
    assert wrap_around_estimate(fast) > 0
