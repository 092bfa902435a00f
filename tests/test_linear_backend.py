"""The two linear backends: a dense eigenbasis on small electric-only grids,
restarted GMRES everywhere else.  Each fast path is checked against the
dense oracles, and so is ``hamiltonian.h_matrix``, the one assembly of the
matrix of H, on electric and A != 0 grids.  The Krylov shifted solve is
solved against the oracle matrix in one, two and three dimensions, called
directly on grids the dense backend would otherwise serve.  Its
contraction bound picks the solver: the Krylov Crank-Nicolson step and a
shift far below the spectrum are Richardson sweeps, checked against the
oracle with no GMRES call, and the bound is checked against the measured
contraction of each sweep; a step too long for the sweep runs GMRES.  The
Krylov-projected n-step propagator of ``linear_flow`` is checked against
the oracle's n-th power and against n single steps."""

import numpy as np
import pytest

import oracles as orc
from magnls import (
    BoundStateFamily,
    ConfigError,
    EvolveConfig,
    GridSpec,
    MagnlsError,
    NonConvergenceError,
    apply_h,
    apply_h1,
    build_gaussian_well,
    build_gauge_field,
    build_hamiltonian,
    build_localized_loop_field,
    evolve,
    gaussian_bump,
    ground_state,
    linear_flow,
    make_field,
    make_potential_pair,
    resolvent_solve,
    shifted_solve,
    step,
)
from magnls import grid as grid_module
from magnls import hamiltonian
from magnls.evolution import _MAX_DT, _cn_step_values
from magnls.hamiltonian import DENSE_MAX_POINTS, _krylov_shifted_solve


def well(dim, n, length):
    g = GridSpec(dim, (n,) * dim, (length,) * dim)
    return build_hamiltonian(build_gaussian_well(g, -2.0, 1.0))


def loop(n, dim=2, length=20.0):
    """A != 0 loop field on an n^dim grid, so the Krylov backend."""
    g = GridSpec(dim, (n,) * dim, (length,) * dim)
    return build_hamiltonian(make_potential_pair(
        build_localized_loop_field(g, 0.3, 1.5, 1.0),
        build_gaussian_well(g, -2.0, 1.0).v))


def gauge_1d(n, length=20.0):
    """A = grad chi on a 1D well: A != 0 in one dimension."""
    g = GridSpec(1, (n,), (length,))
    return build_hamiltonian(make_potential_pair(
        build_gauge_field(gaussian_bump(g, 0.3, 2.0)),
        build_gaussian_well(g, -2.0, 1.0).v))


def rough(n):
    """The loop field with a rough potential of size ~10 on an n x n grid:
    restarted GMRES stays far from convergence for hundreds of steps."""
    g = GridSpec(2, (n, n), (20.0, 20.0))
    return build_hamiltonian(make_potential_pair(
        build_localized_loop_field(g, 0.3, 1.5, 1.0),
        make_field(g, 10.0 * random_values(g, 7).real)))


def random_values(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes)


def oracle_solve(mat, zeta, values):
    """(H - zeta)^-1 values with the oracle matrix of H."""
    shifted = mat - zeta * np.eye(values.size)
    return np.linalg.solve(shifted, values.ravel()).reshape(values.shape)


def oracle_step(spec, values, dt):
    prop = orc.cn_propagator(spec, dt)
    return (prop @ values.ravel()).reshape(values.shape)


@pytest.fixture(scope="module")
def well_3d():
    """Electric-only 8^3 well: 512 points, served by the dense backend."""
    return well(3, 8, 12.0)


def test_backend_selection(sech_spec):
    assert sech_spec.linear_backend == "dense"
    assert sech_spec.dense_basis is not None
    big = well(1, 2 * DENSE_MAX_POINTS, 80.0)
    for spec in (loop(32), big):
        assert spec.linear_backend == "krylov"
        assert spec.dense_basis is None


def test_imaginary_noise_in_v_keeps_the_dense_backend():
    # |Im V| <= 1e-13 passes as real; the pair keeps only the real part, so
    # the noise neither moves the well to the Krylov backend nor its level
    g = GridSpec(1, (256,), (40.0,))
    clean = build_gaussian_well(g, -2.0, 1.0)
    noisy = make_potential_pair(clean.a, make_field(
        g, clean.v.values + 1e-16j * np.sin(g.coords[0])))
    assert not np.any(noisy.v.values.imag)
    spec = build_hamiltonian(noisy)
    assert spec.linear_backend == "dense"
    e0 = ground_state(build_hamiltonian(clean)).e0
    assert abs(ground_state(spec).e0 - e0) <= 1e-12


GRID_MISMATCH = "field grid does not match operator grid"


@pytest.fixture(scope="module", params=["dense", "krylov"])
def foreign(request):
    """An operator and a field of its shape on a box of other lengths: the
    256-point 1D well (L = 40) with an L = 30 field, the 16 x 16 loop
    (L = 20) with an L = 10 field."""
    spec, lengths = ((well(1, 256, 40.0), (30.0,)) if request.param == "dense"
                     else (loop(16), (10.0, 10.0)))
    assert spec.linear_backend == request.param
    g = spec.grid
    return spec, gaussian_bump(GridSpec(g.dim, g.sizes, lengths), 0.1, 1.0)


def test_apply_h_rejects_a_field_on_another_grid(foreign):
    spec, f = foreign
    with pytest.raises(MagnlsError, match=GRID_MISMATCH):
        apply_h(spec, f)


def test_apply_h1_rejects_a_field_on_another_grid(foreign):
    spec, f = foreign
    with pytest.raises(MagnlsError, match=GRID_MISMATCH):
        apply_h1(spec, f)


def test_shifted_solve_rejects_a_field_on_another_grid(foreign):
    spec, f = foreign
    with pytest.raises(MagnlsError, match=GRID_MISMATCH):
        shifted_solve(spec, 0.5j, f)


def test_resolvent_solve_rejects_a_field_on_another_grid(foreign):
    spec, f = foreign
    with pytest.raises(MagnlsError, match=GRID_MISMATCH):
        resolvent_solve(spec, 0.5j, f)


def test_step_rejects_a_field_on_another_grid(foreign):
    spec, f = foreign
    with pytest.raises(MagnlsError, match=GRID_MISMATCH):
        step(spec, f, 1e-3, 1)


def test_linear_flow_rejects_a_field_on_another_grid(foreign):
    spec, f = foreign
    with pytest.raises(MagnlsError, match=GRID_MISMATCH):
        linear_flow(spec, f, 1e-2, dt=1e-3)


@pytest.mark.parametrize("dt", [0.0, 2 * _MAX_DT, -2 * _MAX_DT])
def test_step_size_rule_is_the_same_on_either_backend(foreign, dt):
    spec, f = foreign
    psi = make_field(spec.grid, f.values)
    with pytest.raises(MagnlsError, match=r"\|dt\| must lie in \(0, 0.1\]"):
        step(spec, psi, dt, 1)


@pytest.mark.parametrize("name", ["sech_spec", "well_3d"])
def test_dense_cn_step_matches_the_oracle(name, request):
    spec = request.getfixturevalue(name)
    assert spec.linear_backend == "dense"
    values = random_values(spec.grid, 51)
    got = _cn_step_values(spec, values, 0.01)
    assert np.max(np.abs(got - oracle_step(spec, values, 0.01))) < 1e-12


def test_krylov_cn_kernel_matches_the_oracle(magnetic_spec):
    assert magnetic_spec.linear_backend == "krylov"
    values = random_values(magnetic_spec.grid, 52)
    got = _cn_step_values(magnetic_spec, values, 0.01)
    want = oracle_step(magnetic_spec, values, 0.01)
    assert np.max(np.abs(got - want)) < 1e-10


def test_krylov_cn_step_conserves_mass(magnetic_spec):
    # A smooth state: at 64 points the collocated A-term is not Hermitian on
    # the highest modes, and random data drift by about 1 % over 300 steps.
    values = gaussian_bump(magnetic_spec.grid, 1.0, 2.0).values
    mass0 = np.sum(np.abs(values) ** 2)
    for _ in range(300):
        values = _cn_step_values(magnetic_spec, values, 1e-3)
    assert abs(np.sum(np.abs(values) ** 2) - mass0) <= 1e-14 * mass0


def test_linear_flow_is_repeated_steps(sech_spec):
    f = make_field(sech_spec.grid, random_values(sech_spec.grid, 53))
    t, dt = 0.25, 1e-3
    n = 250
    stepped = f.values
    for _ in range(n):
        stepped = _cn_step_values(sech_spec, stepped, t / n)
    flowed = linear_flow(sech_spec, f, t, dt=dt).values
    assert np.max(np.abs(flowed - stepped)) < 1e-12


def test_linear_flow_takes_whole_steps_of_dt(sech_spec):
    # (13 * 1e-4) / 1e-4 is 13.000000000000002 in floating point; rounding
    # it up would take 14 steps of a different size
    dt = 1e-4
    f = make_field(sech_spec.grid, random_values(sech_spec.grid, 57))
    stepped = f.values
    for _ in range(13):
        stepped = _cn_step_values(sech_spec, stepped, dt)
    flowed = linear_flow(sech_spec, f, 13 * dt, dt=dt).values
    assert np.max(np.abs(flowed - stepped)) < 1e-12


def test_linear_flow_rejects_a_partial_step(sech_spec):
    f = make_field(sech_spec.grid, random_values(sech_spec.grid, 58))
    with pytest.raises(ConfigError, match="not a whole number of steps") as err:
        linear_flow(sech_spec, f, 1.5e-3, dt=1e-3)
    assert "t_final" not in str(err.value)


def test_linear_flow_rejects_a_step_that_is_not_positive(magnetic_spec):
    f = make_field(magnetic_spec.grid, random_values(magnetic_spec.grid, 61))
    for dt in (0.0, -1e-3):
        with pytest.raises(MagnlsError, match="dt must be positive"):
            linear_flow(magnetic_spec, f, 0.1, dt=dt)


def relative_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("data", ["smooth", "random"])
@pytest.mark.parametrize("h", [1e-3, -1e-3])
def test_krylov_cn_power_matches_the_oracle(data, h, magnetic_spec):
    g = magnetic_spec.grid
    values = (gaussian_bump(g, 1.0, 2.0).values if data == "smooth"
              else random_values(g, 58))
    n = 300
    prop = np.linalg.matrix_power(orc.cn_propagator(magnetic_spec, h), n)
    want = (prop @ values.ravel()).reshape(g.sizes)
    got = linear_flow(magnetic_spec, make_field(g, values), n * h, dt=1e-3)
    assert relative_gap(got.values, want) <= 1e-12


def stepped_flow(spec, values, h, n):
    for _ in range(n):
        values = _cn_step_values(spec, values, h)
    return values


@pytest.fixture(scope="module")
def loop_32():
    spec = loop(32)
    return spec, random_values(spec.grid, 59)


@pytest.mark.parametrize("h", [1e-3, -1e-3])
def test_krylov_cn_power_matches_single_steps_on_a_loop_grid(h, loop_32):
    # the 200 single steps each carry a solve tolerance of 1e-12
    spec, values = loop_32
    n = 200
    got = linear_flow(spec, make_field(spec.grid, values), n * h, dt=1e-3)
    assert relative_gap(got.values, stepped_flow(spec, values, h, n)) <= 1e-11


@pytest.fixture(scope="module")
def loop_16():
    return loop(16)


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("states", [0, 1, 3])
@pytest.mark.parametrize("name", ["sech_spec", "loop_16"])
def test_cn_power_of_a_stack_is_each_states_power(name, states, n, request):
    # states on the leading axis: each row of a stacked power is the power
    # of that state alone, bit for bit, on the dense 256-point well and on
    # the Krylov 16 x 16 loop
    spec = request.getfixturevalue(name)
    assert spec.linear_backend == ("dense" if name == "sech_spec"
                                   else "krylov")
    g = spec.grid
    stack = np.array([random_values(g, 80 + k) for k in range(states)],
                     dtype=np.complex128).reshape((states,) + g.sizes)
    got = hamiltonian.cn_power(spec, stack, 1e-3, n)
    assert got.shape == stack.shape
    for row, values in zip(got, stack):
        assert np.array_equal(row, hamiltonian.cn_power(spec, values, 1e-3, n))


@pytest.mark.parametrize("vectors", [12, 2, 1])
def test_krylov_cn_power_steps_when_the_basis_budget_is_too_small(
        vectors, loop_32, monkeypatch):
    # 11 basis vectors cannot carry 200 steps and 1 cannot carry any, so the
    # projection falls back to 200 shifted-solve steps; a budget of 1
    # vector holds no basis at all.  The result is then the stepped one,
    # and the projection's cost is at most one basis of H applications.
    spec, values = loop_32
    n, h = 200, -1e-3
    applied = 0
    apply_h_values = hamiltonian._apply_h_values

    def counted(*args):
        nonlocal applied
        applied += 1
        return apply_h_values(*args)

    monkeypatch.setattr(hamiltonian, "_apply_h_values", counted)
    want = stepped_flow(spec, values, h, n)
    stepped, applied = applied, 0
    monkeypatch.setattr(hamiltonian, "_BASIS_BYTES", vectors * values.nbytes)
    got = linear_flow(spec, make_field(spec.grid, values), n * h, dt=1e-3)
    assert np.array_equal(got.values, want)
    assert stepped <= applied <= stepped + max(vectors - 1, 0)


def test_krylov_cn_power_stops_on_an_invariant_subspace():
    # 16 unknowns: the Krylov space fills the grid after 16 vectors, and the
    # projection is exact there; no division by a vanishing h_{m+1,m}
    spec = gauge_1d(16)
    g = spec.grid
    assert spec.linear_backend == "krylov"
    values = random_values(g, 60)
    n, h = 300, 1e-2
    prop = np.linalg.matrix_power(orc.cn_propagator(spec, h), n)
    with np.errstate(divide="raise", invalid="raise"):
        got = linear_flow(spec, make_field(g, values), n * h, dt=h)
    assert relative_gap(got.values, prop @ values) <= 1e-12


def test_krylov_cn_power_of_the_zero_field(magnetic_spec):
    zero = make_field(magnetic_spec.grid,
                      np.zeros(magnetic_spec.grid.sizes, dtype=complex))
    with np.errstate(divide="raise", invalid="raise"):
        got = linear_flow(magnetic_spec, zero, -0.3, dt=1e-3)
    assert not np.any(got.values)


@pytest.mark.parametrize("shift", ["resolvent", "below", "deflated"])
def test_dense_shifted_solve_matches_krylov(shift, sech_spec, sech_eig):
    tol = 1e-12
    zeta, deflate = {
        "resolvent": (2.0 + 0.1j, None),
        "below": (-3.0, None),
        "deflated": (sech_eig.e0,
                     (sech_eig.phi0.values, 1.0 + abs(sech_eig.e0))),
    }[shift]
    f = make_field(sech_spec.grid, random_values(sech_spec.grid, 54))
    dense = shifted_solve(sech_spec, zeta, f, tol_rel=tol, deflate=deflate)
    krylov = _krylov_shifted_solve(sech_spec, zeta, np.fft.fftn(f.values),
                                   tol_rel=tol, deflate=deflate)
    diff = np.linalg.norm(dense.values - krylov)
    assert diff <= 1e-10 * np.linalg.norm(krylov)


@pytest.mark.parametrize("make", [
    lambda: gauge_1d(16),
    lambda: loop(16),
    lambda: loop(8, dim=3, length=12.0),
    lambda: build_hamiltonian(build_gaussian_well(
        GridSpec(2, (8, 16), (12.0, 20.0)), -2.0, 1.0)),
], ids=["gauge_1d", "loop_2d", "loop_3d", "electric_2d"])
def test_h_matrix_matches_the_oracle(make):
    spec = make()
    got = hamiltonian.h_matrix(spec)
    want = orc.hamiltonian_matrix(spec)
    assert got.dtype == (np.complex128 if spec.magnetic else np.float64)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.fixture(scope="module")
def krylov_oracle(magnetic_spec):
    """A Krylov-backend operator by name, with its dense matrix and its
    ground state; each is built on first use."""
    builders = {
        "magnetic_1d": lambda: magnetic_spec,
        "loop_2d": lambda: loop(16),
        "loop_3d": lambda: loop(8, dim=3, length=12.0),
        "electric_1d": lambda: well(1, 2 * DENSE_MAX_POINTS, 80.0),
    }
    cache = {}

    def get(name):
        if name not in cache:
            spec = builders[name]()
            cache[name] = (spec, orc.hamiltonian_matrix(spec),
                           *orc.dense_ground_state(spec))
        return cache[name]
    return get


@pytest.mark.parametrize("start", ["zero", "x0"])
@pytest.mark.parametrize("shift", ["cn", "resolvent", "deflated"])
@pytest.mark.parametrize(
    "grid", ["magnetic_1d", "loop_2d", "loop_3d", "electric_1d"])
def test_krylov_shifted_solve_matches_the_dense_oracle(grid, shift, start,
                                                       krylov_oracle):
    # the cn shift is solved by Richardson sweeps, which leave x0 unused as
    # the dense backend does; the other two run GMRES
    spec, mat, e0, phi0 = krylov_oracle(grid)
    g = spec.grid
    assert spec.linear_backend == "krylov"
    zeta, deflate = {
        "cn": (2j / 1e-3, None),
        "resolvent": (1.0 + 0.01j, None),
        "deflated": (e0, (phi0, 1.0 + abs(e0))),
    }[shift]
    mat = mat - zeta * np.eye(g.total_points)
    if deflate is not None:
        w, c = deflate
        mat += c * g.volume_element * np.outer(w.ravel(), w.ravel().conj())
    f = random_values(g, 62)
    x0 = random_values(g, 63).ravel() if start == "x0" else None
    tol = 1e-12
    got = shifted_solve(spec, zeta, make_field(g, f), tol_rel=tol,
                        deflate=deflate, x0=x0).values
    want = np.linalg.solve(mat, f.ravel()).reshape(g.sizes)
    assert relative_gap(got, want) <= 1e-9
    # measured with the grid-space H, which the frequency-space kernel
    # never applies
    resid = hamiltonian._shifted_values(spec, zeta, deflate, got) - f
    assert np.linalg.norm(resid) <= tol * np.linalg.norm(f)


@pytest.fixture(scope="module")
def cn_oracle(krylov_oracle):
    """``orc.cn_propagator`` of a ``krylov_oracle`` operator by name and
    dt, each built on first use."""
    cache = {}

    def get(name, dt):
        if (name, dt) not in cache:
            cache[name, dt] = orc.cn_propagator(krylov_oracle(name)[0], dt)
        return cache[name, dt]
    return get


def counted_gmres(monkeypatch):
    """The list of ``krylov.gmres`` calls made from here on."""
    calls = []
    gmres = hamiltonian.krylov.gmres

    def counted(*args, **kwargs):
        calls.append(kwargs.get("rtol"))
        return gmres(*args, **kwargs)

    monkeypatch.setattr(hamiltonian.krylov, "gmres", counted)
    return calls


@pytest.mark.parametrize("dt", [1e-3, -1e-3])
@pytest.mark.parametrize("data", ["smooth", "random"])
@pytest.mark.parametrize(
    "grid", ["magnetic_1d", "loop_2d", "loop_3d", "electric_1d"])
def test_krylov_cn_step_sweeps_without_gmres(grid, data, dt, krylov_oracle,
                                             cn_oracle, monkeypatch):
    # the Richardson sweep serves every CN step at these shifts, in one,
    # two and three dimensions and with A = 0
    spec = krylov_oracle(grid)[0]
    g = spec.grid
    values = (gaussian_bump(g, 1.0, 2.0).values if data == "smooth"
              else random_values(g, 66))
    calls = counted_gmres(monkeypatch)
    got = hamiltonian.cn_power(spec, values, dt, 1)
    want = (cn_oracle(grid, dt) @ values.ravel()).reshape(g.sizes)
    assert calls == []
    assert relative_gap(got, want) <= 1e-12


def test_krylov_cn_step_beyond_the_sweep_bound_runs_gmres(krylov_oracle,
                                                          monkeypatch):
    # at dt = 2 the contraction bound of the loop grid is about 3, so the
    # step is one GMRES solve; at the shift i, closer to the spectrum, it
    # meets the oracle to 1.1e-12
    spec = krylov_oracle("loop_2d")[0]
    dt = 2.0
    assert spec.shift_kernel(2j / dt).bound > 1.0
    values = random_values(spec.grid, 67)
    calls = counted_gmres(monkeypatch)
    got = hamiltonian.cn_power(spec, values, dt, 1)
    assert calls == [hamiltonian._CN_TOL]
    assert relative_gap(got, oracle_step(spec, values, dt)) <= 1e-11


def spied_sweeps(monkeypatch):
    """A list that collects, from here on, the values x = F^-1 D^-1 y each
    application of K, and so each Richardson sweep, starts from."""
    xs = []
    b_values = hamiltonian._b_values

    def spy(spec, x, grads):
        xs.append(x.copy())
        return b_values(spec, x, grads)

    monkeypatch.setattr(hamiltonian, "_b_values", spy)
    return xs


@pytest.mark.parametrize(
    "grid", ["magnetic_1d", "loop_2d", "loop_3d", "electric_1d"])
def test_contraction_bound_covers_each_sweep(grid, krylov_oracle,
                                             monkeypatch):
    # The residual of sweep s + 1 is -K times that of sweep s, so the ratio
    # of successive true residuals is at most ||K|| <= q.  The iterates are
    # recovered as y = D F x from the x each sweep transforms; every residual
    # but the last lies above the stop at tol/q >= 2e-13, far from rounding.
    spec = krylov_oracle(grid)[0]
    f_hat = np.fft.fftn(random_values(spec.grid, 68))
    calls = counted_gmres(monkeypatch)
    xs = spied_sweeps(monkeypatch)
    for dt in (1e-3, -1e-3, 5e-2, 0.1):
        zeta = 2j / dt
        xs.clear()
        _krylov_shifted_solve(spec, zeta, f_hat, tol_rel=hamiltonian._CN_TOL)
        kern = spec.shift_kernel(zeta)
        assert kern.bound < 0.5
        ys = [kern.d * np.fft.fftn(x) for x in xs]
        resid = [np.linalg.norm(a - b) for a, b in zip(ys, ys[1:])]
        assert len(resid) >= 2
        assert max(b / a for a, b in zip(resid, resid[1:])) <= kern.bound
    assert calls == []


def test_krylov_solve_far_below_the_spectrum_sweeps(krylov_oracle,
                                                    monkeypatch):
    # zeta = -50 puts |D^-1| <= 1/50, so q is about 0.1 on the loop grid,
    # and no GMRES call is made
    spec, mat, _, _ = krylov_oracle("loop_2d")
    g = spec.grid
    zeta, tol = -50.0, 1e-12
    assert spec.shift_kernel(zeta).bound < 0.5
    f = random_values(g, 69)
    calls = counted_gmres(monkeypatch)
    got = shifted_solve(spec, zeta, make_field(g, f), tol_rel=tol).values
    assert calls == []
    assert relative_gap(got, oracle_solve(mat, zeta, f)) <= 1e-12
    resid = hamiltonian._shifted_values(spec, zeta, None, got) - f
    assert np.linalg.norm(resid) <= tol * np.linalg.norm(f)


def test_strict_sweep_over_its_cap_raises_the_residual_and_sweep_count(
        krylov_oracle, monkeypatch):
    # At dt = 0.12 (q ~ 0.33) the residual levels off near 1e-17 of
    # ||F f||, so no iterate meets 1e-30: the sweep runs the count its bound
    # guarantees, the least s with q^s <= 1e-30, and reports its last true
    # residual.  Whether rounding lets a sweep land on an exact fixed point
    # (residual 0) instead depends on the shift, the field and the FFT
    # library: at dt = 1e-3 it does after 7 of its 12 sweeps, and on
    # scipy.fft it does at dt = 0.1 for this field.
    spec, mat, _, _ = krylov_oracle("loop_2d")
    g = spec.grid
    zeta = 2j / 0.12
    f = make_field(g, random_values(g, 70))
    xs = spied_sweeps(monkeypatch)
    with pytest.raises(NonConvergenceError, match="sweeps") as err:
        shifted_solve(spec, zeta, f, tol_rel=1e-30)
    q = spec.shift_kernel(zeta).bound
    assert err.value.iterations == len(xs)
    assert q ** err.value.iterations <= 1e-30 < q ** (err.value.iterations - 1)
    assert 1e-30 < err.value.residual <= 1e-14
    xs.clear()
    x = shifted_solve(spec, zeta, f, tol_rel=1e-30, strict=False)
    assert len(xs) == err.value.iterations
    assert relative_gap(x.values, oracle_solve(mat, zeta, f.values)) <= 1e-12


@pytest.mark.parametrize("n", [16, 64])
def test_evolve_at_the_largest_step_makes_no_gmres_call(n, monkeypatch):
    # every Crank-Nicolson step of evolve, up to the largest dt it accepts,
    # has q < 1/2 on the loop grids of the tests and the benchmark
    spec = loop(n)
    calls = counted_gmres(monkeypatch)
    evolve(spec, gaussian_bump(spec.grid, 0.5, 2.0),
           EvolveConfig(dt=_MAX_DT, t_final=5 * _MAX_DT, snapshot_stride=1,
                        conserve_tol=1.0))
    assert calls == []


# newest-first weights of the polynomial extrapolation through k points
BINOMIAL_ROWS = {1: (1,), 2: (2, -1), 3: (3, -3, 1), 4: (4, -6, 4, -1),
                 5: (5, -10, 10, -5, 1), 6: (6, -15, 20, -15, 6, -1)}


@pytest.mark.parametrize("appends", [1, 2, 3, 4, 5, 6, 8, 13])
def test_cn_start_extrapolates_the_newest_pairs_of_its_ring(appends):
    # the start through the newest k = min(appends, 6) solutions; from 7
    # appends on, each solution overwrites the oldest row of the ring
    rng = np.random.default_rng(appends)
    shape = (6, 5)
    ys = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
          for _ in range(appends)]
    history = hamiltonian.cn_history()
    assert hamiltonian._cn_start(history) is None
    for y_j in ys:
        history.append(y_j)
    y = hamiltonian._cn_start(history)
    coeffs = BINOMIAL_ROWS[min(appends, 6)]
    want = sum(c * y_j for c, y_j in zip(coeffs, ys[::-1]))
    assert y.shape == shape
    assert np.linalg.norm(y - want) <= 1e-15 * np.linalg.norm(want)


def counted_fields(monkeypatch, grid):
    """The list of the number of fields on ``grid`` each ``grid.fftn`` or
    ``grid.ifftn`` call transforms, from here on."""
    fields = []
    for name in ("fftn", "ifftn"):
        def counted(a, *args, transform=getattr(grid_module, name), **kwargs):
            fields.append(a.size // grid.total_points)
            return transform(a, *args, **kwargs)
        monkeypatch.setattr(grid_module, name, counted)
    return fields


def strang_inputs(spec, sign, dt, n):
    """The n inputs of the CN steps of n Strang steps of a Gaussian bump,
    each stepped with the oracle propagator: every phase of the flow at
    nonlinearity ``sign`` lies between two of them."""
    prop = orc.cn_propagator(spec, dt)
    values = gaussian_bump(spec.grid, 1.0, 2.0).values
    inputs = []
    for _ in range(n):
        values = values * np.exp(-0.5j * sign * dt * np.abs(values) ** 2)
        inputs.append(values)
        values = (prop @ values.ravel()).reshape(values.shape)
        values = values * np.exp(-0.5j * sign * dt * np.abs(values) ** 2)
    return prop, inputs


@pytest.mark.parametrize("sign", [1, -1])
def test_fused_cn_steps_match_the_oracle_from_zero_and_warm_starts(
        sign, loop_16):
    # each Krylov CN step of a state's Strang inputs, the first from y = 0
    # and the rest from the extrapolation of its history, against the dense
    # propagator applied to the same input
    dt = 1e-3
    prop, inputs = strang_inputs(loop_16, sign, dt, 12)
    history = hamiltonian.cn_history()
    for values in inputs:
        got = hamiltonian.cn_power(loop_16, values, dt, 1, history)
        want = (prop @ values.ravel()).reshape(values.shape)
        assert relative_gap(got, want) <= 1e-12
    assert history.count == 6


def test_a_warm_cn_step_transforms_d_plus_4_fields(loop_16, monkeypatch):
    # one forward transform of psi; one sweep: a batched inverse of the d +
    # 1 rows [1, i k_1, i k_2] (D^-1 y - F psi) and one forward transform
    # of B (x - psi); one inverse of D^-1 y.  The right-hand side F H psi,
    # three more transforms, is never formed
    dt = 1e-3
    _, inputs = strang_inputs(loop_16, 1, dt, 8)
    history = hamiltonian.cn_history()
    for values in inputs[:-1]:
        hamiltonian.cn_power(loop_16, values, dt, 1, history)
    fields = counted_fields(monkeypatch, loop_16.grid)
    hamiltonian.cn_power(loop_16, inputs[-1], dt, 1, history)
    assert fields == [1, 3, 1, 1]
    assert sum(fields) == loop_16.grid.dim + 4 == 6


@pytest.mark.parametrize("ring", ["another state", "scaled by 1e4"])
def test_a_cn_step_from_a_bad_start_converges_within_its_cap(ring, loop_16):
    # a ring filled by the solves of a rough state, or of this state scaled
    # by 1e4, extrapolates to a start far from the solution: the first
    # sweep measures its residual, and the strict solve still meets the
    # oracle, as the cold step does
    dt = 1e-3
    prop, inputs = strang_inputs(loop_16, 1, dt, 7)
    fill = ([random_values(loop_16.grid, 71)] * 6 if ring == "another state"
            else [1e4 * values for values in inputs[:6]])
    history = hamiltonian.cn_history()
    for values in fill:
        hamiltonian.cn_power(loop_16, values, dt, 1, history)
    values = inputs[-1]
    got = hamiltonian.cn_power(loop_16, values, dt, 1, history)
    want = (prop @ values.ravel()).reshape(values.shape)
    assert relative_gap(got, want) <= 1e-12
    cold = hamiltonian.cn_power(loop_16, values, dt, 1)
    assert relative_gap(got, cold) <= 1e-13


def test_krylov_shifted_solve_on_a_regularized_mode(krylov_oracle):
    # zeta = 0 makes |k|^2 - zeta vanish at k = 0, where the kernel's
    # preconditioner is regularized; H itself stays invertible there
    spec, mat, _, _ = krylov_oracle("loop_2d")
    f = random_values(spec.grid, 65)
    tol = 1e-12
    got = shifted_solve(spec, 0.0, make_field(spec.grid, f),
                        tol_rel=tol).values
    want = np.linalg.solve(mat, f.ravel()).reshape(spec.grid.sizes)
    assert relative_gap(got, want) <= 1e-9
    resid = hamiltonian._shifted_values(spec, 0.0, None, got) - f
    assert np.linalg.norm(resid) <= tol * np.linalg.norm(f)


def test_strict_krylov_solve_over_its_budget_raises_the_true_residual(
        monkeypatch):
    # One restart cycle of 150 steps leaves the rough operator's solve far
    # from 1e-8.  The non-strict solve with the same budget returns the
    # last iterate the strict one raised on.
    spec = rough(16)
    g = spec.grid
    monkeypatch.setattr(hamiltonian, "_MAX_ITER", 150)
    monkeypatch.setattr(hamiltonian, "_DIRECTION_MAX_ITER", 150)
    f = make_field(g, random_values(g, 64))
    with pytest.raises(NonConvergenceError) as err:
        shifted_solve(spec, -1.0, f, tol_rel=1e-8)
    x = shifted_solve(spec, -1.0, f, tol_rel=1e-8, strict=False)
    resid = (np.linalg.norm(apply_h(spec, x).values + x.values - f.values)
             / np.linalg.norm(f.values))
    assert resid > 1e-8
    assert err.value.residual == pytest.approx(resid, rel=1e-9)
    assert err.value.iterations == 150


def test_stalling_non_strict_krylov_solve_stops_within_its_cap(monkeypatch):
    # A != 0, so the Krylov backend; 256 unknowns, more than one 150-step
    # restart cycle, and a tolerance no solve reaches.  The rough potential
    # keeps GMRES far from convergence (relative residual ~5e-2 after 300
    # steps), so the solve runs its whole budget of two cycles; a smooth
    # operator reaches rounding level within 50 steps and may then end the
    # solve early on a GMRES breakdown.  Each GMRES step applies the
    # operator once, and each cycle ends on one true residual.
    spec = rough(16)
    g = spec.grid
    applied = 0
    solve = hamiltonian.krylov.solve

    def counted_solve(matvec, *args, **kwargs):
        def counted(v):
            nonlocal applied
            applied += 1
            return matvec(v)
        return solve(counted, *args, **kwargs)

    monkeypatch.setattr(hamiltonian.krylov, "solve", counted_solve)
    f = make_field(g, random_values(g, 56))
    x = shifted_solve(spec, -1.0, f, tol_rel=1e-30, strict=False)
    assert np.all(np.isfinite(x.values))
    cycles, steps = 2, 150
    assert cycles * steps < applied <= cycles * (steps + 1)


def test_non_strict_resolvent_solve_meets_its_true_residual_in_one_call(
        monkeypatch):
    # GMRES runs on the right-preconditioned system, whose residual is the
    # true residual up to the DFT's scale, so the running estimate that ends
    # its restart cycle is the one checked here: the non-strict solve meets
    # 1e-8 in its one call (16 steps on this loop grid).
    spec = loop(16)
    g = spec.grid
    calls = counted_gmres(monkeypatch)
    rng = np.random.default_rng(3)
    f = make_field(g, rng.standard_normal(g.sizes)
                   + 1j * rng.standard_normal(g.sizes))
    zeta = 1.0 + 1e-2j
    u = resolvent_solve(spec, zeta, f, tol_rel=1e-8, strict=False)
    resid = apply_h(spec, u).values - zeta * u.values - f.values
    assert len(calls) == 1
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(f.values)


def test_deflated_dense_solve_is_one_eigenbasis_product(sech_spec, sech_eig,
                                                        monkeypatch):
    # phi0 is an eigenvector of the basis, so the rank-one term only moves
    # its eigenvalue: each deflated solve is one product with the basis and
    # no matrix is inverted
    spec = build_hamiltonian(sech_spec.potentials)
    phi, e0 = sech_eig.phi0.values, sech_eig.e0
    f = make_field(spec.grid, random_values(spec.grid, 55))
    inverted, products = [], []
    inv, apply = np.linalg.inv, hamiltonian.DenseBasis.apply
    monkeypatch.setattr(np.linalg, "inv",
                        lambda a: inverted.append(a.shape) or inv(a))
    monkeypatch.setattr(hamiltonian.DenseBasis, "apply",
                        lambda *a, **k: products.append(1) or apply(*a, **k))
    for n, weight in enumerate((1.0, 3.0), start=1):
        # shifted_solve measures the true residual and raises on a miss
        x = shifted_solve(spec, e0, f, tol_rel=1e-12, deflate=(phi, weight))
        assert len(products) == n
        want = orc.dense_deflated_solve(spec, e0, f.values, phi, weight)
        assert relative_gap(x.values, want) <= 1e-12
    assert inverted == []


def test_dense_operator_assembles_its_matrix_once(monkeypatch):
    # the eigenbasis is the one dense computation: the ground state, a
    # family build and a state of it take no second assembly of H
    spec = well(1, 256, 40.0)
    assembled = 0
    h_matrix = hamiltonian.h_matrix

    def counted(*args):
        nonlocal assembled
        assembled += 1
        return h_matrix(*args)

    monkeypatch.setattr(hamiltonian, "h_matrix", counted)
    eig = ground_state(spec)
    BoundStateFamily(spec, eig, sign=1).solve(0.05)
    assert assembled == 1


@pytest.mark.parametrize("strict", [True, False])
def test_deflation_by_a_non_eigenvector_raises(strict, sech_spec, sech_eig):
    # the eigenbasis solve is exact only for an eigenvector; a tilt of
    # 1e-8 of phi0's peak puts 3.5e-15 of its mass off phi0's index, where
    # phi0 itself puts about 2e-30
    phi = sech_eig.phi0.values
    tilt = 1e-8 * np.max(np.abs(phi)) * random_values(sech_spec.grid, 57)
    f = make_field(sech_spec.grid, random_values(sech_spec.grid, 58))
    with pytest.raises(MagnlsError, match="not an eigenvector"):
        shifted_solve(sech_spec, sech_eig.e0, f, tol_rel=1e-12,
                      deflate=(phi + tilt, 1.0), strict=strict)


def test_eigenbasis_that_fails_its_check_raises(monkeypatch):
    monkeypatch.setattr(hamiltonian, "_DENSE_TOL", 0.0)
    spec = well(1, 64, 20.0)
    with pytest.raises(NonConvergenceError, match="dense eigenbasis"):
        spec.dense_basis
