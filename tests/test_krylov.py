"""The GMRES wrapper: one scipy call per solve, and stall reports carry the
iterations actually run.  Richardson's iteration on K y = -q y, whose
residuals are known in closed form: it converges within its cap, and an
understated bound gives a strict solve's report or a non-strict solve's
last iterate; a start's first sweep measures its residual and fixes the
cap, and a start that bounds ||b|| by nothing gives way to y = 0.  The
Arnoldi process: an orthonormal basis and the
Arnoldi relation on a non-Hermitian operator, and an exact end on an
invariant subspace.  The block Davidson eigensolver: the lowest real parts
of a non-Hermitian matrix, through thick restarts and on a basis that
fills the space."""

import math

import numpy as np
import pytest

from magnls import NonConvergenceError, krylov


def test_stall_reports_the_gmres_iterations_it_ran():
    # 64 distinct eigenvalues and a restart length of 4: no restart cycle can
    # reach tol = 1e-30 or break down, so every cycle runs all its steps
    diag = np.logspace(0.0, 3.0, 64)
    b = np.ones(64, dtype=np.complex128)
    applied = 0

    def matvec(v):
        nonlocal applied
        applied += 1
        return diag * v

    max_iter, restart = 12, 4
    with pytest.raises(NonConvergenceError) as err:
        krylov.solve(matvec, b, tol=1e-30, max_iter=max_iter, restart=restart)
    # One GMRES call of max_iter // restart cycles.  Every GMRES step applies
    # the operator once; so does the true residual that ends each cycle, and
    # the one the failed strict solve measures for its error.
    cycles = max_iter // restart
    assert applied == max_iter + cycles + 1 == 16
    assert err.value.iterations == max_iter
    assert f"after {max_iter} GMRES iterations" in str(err.value)


def test_converged_solve_is_one_gmres_call_with_no_residual_of_its_own(
        monkeypatch):
    # Unpreconditioned GMRES on a diagonal operator: its running residual
    # estimate is the true residual, so each restart cycle runs all its
    # steps until the last, and the solve spans several cycles.
    diag = np.logspace(0.0, 2.0, 64)
    b = np.random.default_rng(4).standard_normal(64) + 0j
    applied = calls = steps = 0

    def matvec(v):
        nonlocal applied
        applied += 1
        return diag * v

    gmres = krylov.gmres

    def counted_gmres(*args, callback, **kwargs):
        nonlocal calls
        calls += 1

        def step(residual):
            nonlocal steps
            steps += 1
            callback(residual)
        return gmres(*args, callback=step, **kwargs)

    monkeypatch.setattr(krylov, "gmres", counted_gmres)
    tol, restart = 1e-10, 8
    x = krylov.solve(matvec, b, tol=tol, max_iter=10000, restart=restart)
    assert np.linalg.norm(diag * x - b) <= tol * np.linalg.norm(b)
    assert calls == 1
    cycles = -(-steps // restart)
    assert cycles > 1
    # one application per GMRES step and one true residual per cycle
    assert applied == steps + cycles


def sweep_map(factor, b):
    """The sweep map y -> b - K y of K y = factor y, with b at y = None,
    counting its applications of K."""
    calls = []

    def sweep(y):
        if y is None:
            return b
        calls.append(1)
        return b - factor * y
    return sweep, calls


def richardson_rhs():
    rng = np.random.default_rng(5)
    return rng.standard_normal(32) + 1j * rng.standard_normal(32)


def test_richardson_converges_within_its_cap():
    # from y = 0 the map gives b and ||b|| without applying K; sweep s then
    # measures the residual q^s ||b|| of the iterate before it and stops
    # once q times it meets tol: at q = 1/4 and tol = 1e-10 that is s = 16,
    # one inside the cap of 17, and the corrected iterate's residual is
    # q^17 = 5.8e-11
    b = richardson_rhs()
    q, tol = 0.25, 1e-10
    sweep, calls = sweep_map(-q, b)
    y = krylov.richardson(sweep, bound=q, tol=tol)
    assert len(calls) == 16 == math.ceil(math.log(tol) / math.log(q)) - 1
    assert np.linalg.norm((1.0 - q) * y - b) <= tol * np.linalg.norm(b)


def test_richardson_with_a_bound_below_the_norm_stops_at_its_cap():
    # a bound of 1/8 for ||K|| = 1/4 also overstates the lower bound
    # ||y'|| - bound ||y|| on ||b|| that the sweeps keep, up to 1.17 ||b||
    # at sweep 11; the cap from y = 0 then ends the iteration once
    # (1/8)^s <= 1.17 tol, after 11 sweeps, where the residual is still
    # q^11 = 2.4e-7 of ||b||
    b = richardson_rhs()
    q, bound, tol = 0.25, 0.125, 1e-10
    sweep, calls = sweep_map(-q, b)
    with pytest.raises(NonConvergenceError, match="after 11 sweeps") as err:
        krylov.richardson(sweep, bound=bound, tol=tol)
    assert len(calls) == err.value.iterations == 11
    b_low = ((1.0 - q ** 12) - bound * (1.0 - q ** 11)) / (1.0 - q)
    assert bound ** 10 > tol * b_low >= bound ** 11
    assert err.value.residual == pytest.approx(q ** 11 / b_low, rel=1e-12)
    # the non-strict solve returns its last iterate, b (1 + q + ... + q^11)
    calls.clear()
    y = krylov.richardson(sweep, bound=bound, tol=tol, strict=False)
    assert len(calls) == 11
    np.testing.assert_allclose(y, b * (1.0 - q ** 12) / (1.0 - q),
                               rtol=1e-14)


@pytest.mark.parametrize("bound", [0.0, 0.25])
def test_richardson_with_a_zero_operator_returns_at_the_first_sweep(bound):
    # with a zero bound the map's b is the solution; with 1/4 the first
    # sweep from it measures a zero residual
    b = richardson_rhs()
    sweep, calls = sweep_map(0.0, b)
    y = krylov.richardson(sweep, bound=bound, tol=1e-12)
    assert len(calls) == (bound > 0.0)
    assert np.array_equal(y, b)


@pytest.mark.parametrize("ratio, sweeps", [(1.5, 1), (0.99 / 0.25, 1),
                                           (1.01 / 0.25, 2)])
def test_richardson_stops_once_the_bound_covers_the_corrected_iterate(
        ratio, sweeps):
    # from a start whose residual r is ratio tol ||b||, the first sweep
    # measures r and forms the corrected iterate y', whose residual is q r,
    # and bounds ||b|| below by ||y'|| - q ||start||, here ||b|| itself:
    # within tol ||b|| up to ratio 1/q = 4, so one sweep; beyond, a second
    b = richardson_rhs()
    q, tol = 0.25, 1e-10
    b_norm = float(np.linalg.norm(b))
    sweep, calls = sweep_map(-q, b)
    start = (b + ratio * tol * b) / (1.0 - q)   # (1 - q) start - b = r
    y = krylov.richardson(sweep, start, bound=q, tol=tol)
    assert len(calls) == sweeps
    assert np.linalg.norm((1.0 - q) * y - b) <= tol * b_norm


def test_richardson_from_an_exact_start_returns_after_one_sweep():
    # the first sweep measures the start's true residual, zero up to
    # rounding, and returns the corrected start
    b = richardson_rhs()
    q = 0.25
    sweep, calls = sweep_map(-q, b)
    exact = b / (1.0 - q)
    y = krylov.richardson(sweep, exact, bound=q, tol=1e-12)
    assert len(calls) == 1
    np.testing.assert_allclose(y, exact, rtol=1e-15)


def test_a_strict_solve_from_a_start_still_raises_at_its_cap():
    # a bound of 1/8 for ||K|| = 1/4, from a start whose residual is
    # r1 = 0.1 ||b||: the first sweep bounds ||b|| below by
    # b1 = ||y'|| - ||start|| / 8 = 1.18 ||b|| and caps the sweeps at
    # 1 + ceil(log(tol b1 / r1) / log(1/8)) = 11, where the residual
    # 0.1 q^10 ||b|| = 9.5e-8 ||b|| is still above tol
    b = richardson_rhs()
    q, bound, tol = 0.25, 0.125, 1e-10
    sweep, calls = sweep_map(-q, b)
    start = 1.1 * b / (1.0 - q)   # (1 - q) start - b = 0.1 b
    b1 = (1.0 + q * 1.1 / (1.0 - q)) - bound * 1.1 / (1.0 - q)
    cap = 1 + math.ceil(math.log(tol * b1 / 0.1) / math.log(bound))
    with pytest.raises(NonConvergenceError,
                       match=f"after {cap} sweeps") as err:
        krylov.richardson(sweep, start, bound=bound, tol=tol)
    assert len(calls) == err.value.iterations == cap == 11
    # the largest of the lower bounds ||y_k+1|| - bound ||y_k|| on ||b||
    # that the sweeps gave, here b1, divides the last true residual
    ys = [start]
    for _ in range(cap):
        ys.append(b + q * ys[-1])
    b_low = max(np.linalg.norm(ys[k + 1]) - bound * np.linalg.norm(ys[k])
                for k in range(cap))
    resid = np.linalg.norm(ys[-2] - ys[-1]) / b_low
    assert err.value.residual == pytest.approx(resid, rel=1e-12)
    assert resid * b_low == pytest.approx(0.1 * q ** 10 * np.linalg.norm(b),
                                          rel=1e-12)


@pytest.mark.parametrize("b_zero", [False, True])
def test_richardson_replaces_a_start_that_bounds_nothing_by_the_zero_start(
        b_zero):
    # the start -b / q sweeps to b - K start = 0, and any start does when
    # b = 0: its lower bound on ||b|| is at most zero.  The iteration drops
    # it for y = 0 and then runs the cold solve, sweep for sweep, one sweep
    # later; with b = 0 that returns zero at once
    rhs = richardson_rhs()
    b = 0.0 * rhs if b_zero else rhs
    q, tol = 0.25, 1e-10
    sweep, calls = sweep_map(-q, b)
    cold = krylov.richardson(sweep, bound=q, tol=tol)
    cold_sweeps = len(calls)
    calls.clear()
    y = krylov.richardson(sweep, -rhs / q, bound=q, tol=tol)
    assert np.array_equal(y, cold)
    assert len(calls) == cold_sweeps + 1 == (1 if b_zero else 17)


def test_arnoldi_basis_and_relation_on_a_non_hermitian_matrix():
    rng = np.random.default_rng(3)
    n, m_max = 40, 12
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert np.linalg.norm(a - a.conj().T) > 1.0
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    steps = []
    for m, rows, (basis,), (hess,) in krylov.arnoldi(
            lambda vs: vs @ a.T, v0[None], m_max):
        steps.append(m)
        assert rows.tolist() == [0]
        v = basis[:m + 1]
        assert np.abs(v.conj() @ v.T - np.eye(m + 1)).max() <= 1e-12
        assert np.linalg.norm(a @ v[:m].T - v.T @ hess[:m + 1, :m]) <= (
            1e-12 * np.linalg.norm(a))
    assert steps == list(range(1, m_max + 1))
    assert np.allclose(basis[0], v0 / np.linalg.norm(v0), rtol=0, atol=1e-15)


def test_arnoldi_ends_on_an_exactly_invariant_subspace():
    # a weighted 3-cycle e0 -> e1 -> e2 -> e0 beside a random block: from e0
    # every new direction is exact, and the fourth one is exactly zero
    rng = np.random.default_rng(5)
    a = np.zeros((6, 6), dtype=np.complex128)
    a[1, 0], a[2, 1], a[0, 2] = 2.0, 0.5j, -3.0
    a[3:, 3:] = rng.standard_normal((3, 3))
    applied = 0

    def apply(vs):
        nonlocal applied
        applied += 1
        return vs @ a.T

    v0 = np.zeros((1, 6), dtype=np.complex128)
    v0[0, 0] = 1.0
    live = np.ones(1, dtype=bool)
    *_, (m, _, (basis,), (hess,)) = krylov.arnoldi(apply, v0, 6, live)
    assert m == applied == 3
    assert not live[0]
    assert hess[3, 2] == 0.0
    assert np.array_equal(a @ basis[:3].T, basis[:3].T @ hess[:3, :3])


@pytest.mark.parametrize("n, m_max", [(60, 12), (10, 48)])
def test_davidson_finds_the_lowest_real_parts_of_a_non_hermitian_matrix(
        n, m_max):
    # a spread diagonal with a small non-Hermitian coupling: a 12-row cap
    # forces thick restarts, and 10 unknowns fill the basis
    rng = np.random.default_rng(7)
    d = np.linspace(-3.0, 5.0, n)
    a = np.diag(d) + 0.05 * (rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))
    levels = np.linalg.eigvals(a)
    levels = levels[np.argsort(levels.real)]
    tols = np.array([1e-10, 1e-10, 1e-8])

    def precondition(resid, theta):
        return resid / (np.abs(d - theta.real[:, None]) + 0.5)

    theta, x, steps = krylov.davidson(
        lambda block: block @ a.T, precondition,
        np.ones(n, dtype=np.complex128), tols, m_max=m_max, max_steps=200)
    assert 1 <= steps < 200
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(np.linalg.norm(x @ a.T - theta[:, None] * x, axis=1)
                  <= tols)
    assert np.abs(theta - levels[:3]).max() <= 1e-8
