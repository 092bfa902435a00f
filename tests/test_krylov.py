"""The GMRES wrapper: one scipy call per solve, and stall reports carry the
iterations actually run.  Richardson's iteration on K y = -q y, whose
residuals are known in closed form: it converges within its cap, and an
understated bound gives a strict solve's report or a non-strict solve's
last iterate; a start is taken only when its stated residual is below the
cold start's bound, and it changes neither the stop rule nor the cap.  The Arnoldi process: an orthonormal basis and the
Arnoldi relation on a non-Hermitian operator, and an exact end on an
invariant subspace."""

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


def scaled_by(factor):
    """The operator K y = factor y, counting its applications."""
    calls = []

    def apply(y):
        calls.append(1)
        return factor * y
    return apply, calls


def richardson_rhs():
    rng = np.random.default_rng(5)
    return rng.standard_normal(32) + 1j * rng.standard_normal(32)


def test_richardson_converges_within_its_cap():
    # the sweep s measures the residual q^s ||b|| of the iterate before it
    # and stops once q times it meets tol: at q = 1/4 and tol = 1e-10 that
    # is s = 16, one inside the cap of 17, and the corrected iterate's
    # residual is q^17 = 5.8e-11
    b = richardson_rhs()
    q, tol = 0.25, 1e-10
    apply, calls = scaled_by(-q)
    y = krylov.richardson(apply, b, bound=q, tol=tol)
    assert len(calls) == 16 == math.ceil(math.log(tol) / math.log(q)) - 1
    assert np.linalg.norm((1.0 - q) * y - b) <= tol * np.linalg.norm(b)


def test_richardson_with_a_bound_below_the_norm_stops_at_its_cap():
    # a bound of 1/8 for ||K|| = 1/4 caps the sweeps at 12, where the
    # residual is still q^12 = 6.0e-8 of ||b||
    b = richardson_rhs()
    q, bound, tol = 0.25, 0.125, 1e-10
    apply, calls = scaled_by(-q)
    with pytest.raises(NonConvergenceError, match="after 12 sweeps") as err:
        krylov.richardson(apply, b, bound=bound, tol=tol)
    assert len(calls) == err.value.iterations == 12
    assert err.value.residual == pytest.approx(q ** 12, rel=1e-12)
    # the non-strict solve returns its last iterate, b (1 + q + ... + q^12)
    calls.clear()
    y = krylov.richardson(apply, b, bound=bound, tol=tol, strict=False)
    assert len(calls) == 12
    np.testing.assert_allclose(y, b * (1.0 - q ** 13) / (1.0 - q),
                               rtol=1e-14)


@pytest.mark.parametrize("bound", [0.0, 0.25])
def test_richardson_with_a_zero_operator_returns_at_the_first_sweep(bound):
    b = richardson_rhs()
    apply, calls = scaled_by(0.0)
    y = krylov.richardson(apply, b, bound=bound, tol=1e-12)
    assert len(calls) == 1
    assert np.array_equal(y, b)


@pytest.mark.parametrize("ratio, sweeps", [(1.5, 1), (0.99 / 0.25, 1),
                                           (1.01 / 0.25, 2)])
def test_richardson_stops_once_the_bound_covers_the_corrected_iterate(
        ratio, sweeps):
    # from a start whose residual r is ratio tol ||b||, the first sweep
    # measures r and forms the corrected iterate, whose residual is q r:
    # within tol ||b|| up to ratio 1/q = 4, so one sweep; beyond, a second
    b = richardson_rhs()
    q, tol = 0.25, 1e-10
    b_norm = float(np.linalg.norm(b))
    apply, calls = scaled_by(-q)
    r0 = ratio * tol * b
    start = (b + r0) / (1.0 - q)   # (1 - q) start - b = r0
    y = krylov.richardson(apply, b, bound=q, tol=tol,
                          start=(start, float(np.linalg.norm(r0))))
    assert len(calls) == sweeps
    assert np.linalg.norm((1.0 - q) * y - b) <= tol * b_norm


def test_richardson_from_an_exact_start_returns_after_one_sweep():
    # the first sweep measures the start's true residual, zero up to
    # rounding, and returns the corrected start
    b = richardson_rhs()
    q = 0.25
    apply, calls = scaled_by(-q)
    exact = b / (1.0 - q)
    y = krylov.richardson(apply, b, bound=q, tol=1e-12, start=(exact, 0.0))
    assert len(calls) == 1
    np.testing.assert_allclose(y, exact, rtol=1e-15)


def test_a_strict_solve_from_a_start_still_raises_at_its_cap():
    # a bound of 1/8 for ||K|| = 1/4 caps the sweeps at 12; from a start
    # whose residual is 0.1 ||b||, below the bound's 0.125 ||b||, the
    # residual after the cap is 0.1 q^11 = 2.4e-8 of ||b||, above tol
    b = richardson_rhs()
    q, bound, tol = 0.25, 0.125, 1e-10
    apply, calls = scaled_by(-q)
    r0 = 0.1 * b
    start = (b + r0) / (1.0 - q)   # (1 - q) start - b = r0
    with pytest.raises(NonConvergenceError, match="after 12 sweeps") as err:
        krylov.richardson(apply, b, bound=bound, tol=tol,
                          start=(start, float(np.linalg.norm(r0))))
    assert len(calls) == err.value.iterations == 12
    assert err.value.residual == pytest.approx(0.1 * q ** 11, rel=1e-12)


@pytest.mark.parametrize("predicted", [0.25, 0.5])
def test_richardson_takes_no_start_predicted_at_or_above_the_bound(predicted):
    # a start whose stated residual is not below bound ||b|| is not taken,
    # even an exact one: the solve is the cold one, sweep for sweep, and
    # stops at the least s with q q^s <= tol
    b = richardson_rhs()
    q, tol = 0.25, 1e-10
    apply, calls = scaled_by(-q)
    cold = krylov.richardson(apply, b, bound=q, tol=tol)
    cold_sweeps = len(calls)
    calls.clear()
    y = krylov.richardson(apply, b, bound=q, tol=tol, start=(
        b / (1.0 - q), predicted * float(np.linalg.norm(b))))
    assert len(calls) == cold_sweeps == 16
    assert np.array_equal(y, cold)


def test_arnoldi_basis_and_relation_on_a_non_hermitian_matrix():
    rng = np.random.default_rng(3)
    n, m_max = 40, 12
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert np.linalg.norm(a - a.conj().T) > 1.0
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    steps = []
    for m, basis, hess in krylov.arnoldi(lambda v: a @ v, v0, m_max):
        steps.append(m)
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

    def apply(v):
        nonlocal applied
        applied += 1
        return a @ v

    v0 = np.zeros(6, dtype=np.complex128)
    v0[0] = 1.0
    *_, (m, basis, hess) = krylov.arnoldi(apply, v0, 6)
    assert m == applied == 3
    assert hess[3, 2] == 0.0
    assert np.array_equal(a @ basis[:3].T, basis[:3].T @ hess[:3, :3])
