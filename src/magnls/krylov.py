"""The package's iterative kernels: restarted GMRES, Richardson's iteration
and the Arnoldi process.

Every Krylov-backend shifted solve is ``hamiltonian._krylov_shifted_solve``,
and a contraction bound it computes for the shift picks the solver here.
Below 1/2 it calls ``richardson``, as for every Crank-Nicolson step at
2i/dt, where the preconditioned system is close to the identity.  The bound
also ends the iteration: once it times the measured residual meets the
tolerance, so does the corrected iterate.  A step of a long run starts from
the extrapolation of that state's earlier solves, whose residual is known
without applying the operator, and is then usually one sweep.  Otherwise
it calls ``solve``: resolvent applications, deflated solves at the
ground-state energy and the eigensolver's inverse iterations.  (Small
electric-only grids solve directly in a dense eigenbasis; see
``hamiltonian``.)  The caller hands over an already preconditioned
operator, so GMRES runs without ``M`` and its running residual estimate is
the residual of the system it solves.  Each ``solve`` is one ``scipy.sparse.linalg.gmres`` call, made
through this module's ``gmres``.  scipy ends every restart cycle on the
recomputed residual ||b - Ax|| and reports success only when that residual
meets ``rtol``; when rounding lets the running estimate pass first, it
tightens its inner tolerance and opens another cycle.  A strict solve that
runs out of cycles raises ``NonConvergenceError`` with the achieved
residual and the number of GMRES iterations it ran; a strict ``richardson``
that reaches its sweep cap does the same with its sweep count.

Importing this module loads no scipy.  ``scipy.sparse.linalg`` (about
0.25 s) is imported when the first Krylov-backend ``HamiltonianSpec`` is
built, so that the cost falls in set-up rather than in the first solve;
dense (small electric-only) runs never import it.

Every Krylov subspace the package projects onto comes from ``arnoldi``:
the Ritz pairs of the shifted inverse in ``spectrum``, the Crank-Nicolson
powers of ``hamiltonian.cn_power`` and the Lanczos estimate of the
weighted resolvent norms in ``analysis``.  It orthogonalizes by two-pass
classical Gram-Schmidt and never assumes the operator Hermitian: the
collocated magnetic H is not (Saad, Numerical Methods for Large Eigenvalue
Problems, 2nd ed., SIAM 2011).
"""

from __future__ import annotations

import math
import mmap

import numpy as np

from .errors import NonConvergenceError


def _sparse_linalg():
    """``scipy.sparse.linalg``, imported on the first call."""
    import scipy.sparse.linalg
    return scipy.sparse.linalg


def gmres(matvec, b: np.ndarray, **options):
    """``scipy.sparse.linalg.gmres`` on the operator ``matvec`` of size
    ``b.size``.  ``solve`` calls it through this module-level name."""
    linalg = _sparse_linalg()
    op = linalg.LinearOperator((b.size, b.size), matvec=matvec,
                               dtype=np.complex128)
    return linalg.gmres(op, b, **options)


def solve(matvec, b: np.ndarray, *, tol: float, max_iter: int,
          x0: np.ndarray | None = None, restart: int = 150,
          strict: bool = True) -> np.ndarray:
    """Solve matvec(x) = b to relative residual ``tol`` in the 2-norm.

    ``matvec`` acts on and returns 1-d complex arrays.
    ``max_iter`` is the GMRES step budget, run as ``max_iter // restart``
    restart cycles (at least one).  With ``strict=False`` a solve that
    misses ``tol`` returns its last iterate instead of raising; callers that
    only need a direction (inverse iteration) use that mode and re-measure
    what they care about.
    """
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b)

    restart = min(restart, b.size)
    iterations = 0

    def count(_residual):
        nonlocal iterations
        iterations += 1

    x, info = gmres(matvec, b, x0=x0, rtol=tol, atol=0.0, restart=restart,
                    maxiter=max(1, max_iter // restart), callback=count,
                    callback_type="pr_norm")
    if info == 0 or not strict:
        return x
    resid = float(np.linalg.norm(matvec(x) - b)) / b_norm
    raise NonConvergenceError(
        f"linear solve stalled at relative residual {resid:.3e} "
        f"(target {tol:.1e}) after {iterations} GMRES iterations",
        residual=resid, iterations=iterations)


def richardson(apply, b: np.ndarray, *, bound: float, tol: float,
               strict: bool = True,
               start: tuple[np.ndarray, float] | None = None) -> np.ndarray:
    """Solve y + K y = b, for ``apply`` an operator K with
    ||K|| <= ``bound`` < 1, by Richardson's iteration y <- b - K y (Saad,
    Iterative Methods for Sparse Linear Systems, 2nd ed., SIAM 2003, ch. 4).

    The iteration starts from y = b, whose residual K b is at most
    bound ||b||, or from ``start = (y0, r0)``, a guess y0 whose residual
    norm is known to be r0 without applying K, when r0 < bound ||b||.
    Sweep s measures the true residual r = y + K y - b of its iterate, and
    the corrected iterate y - r it forms has the residual -K r, at most
    bound ||r||; so from either start ||r|| <= bound^s ||b||.  The
    iteration stops as soon as bound ||r|| <= ``tol`` ||b|| and returns the
    corrected iterate, whose residual the bound then puts within ``tol``
    without another sweep.  A start whose residual is at most
    ``tol`` ||b|| / bound so costs one sweep.  With ||K|| <= bound the stop
    comes by the least s with bound^(s+1) <= ``tol``; after the least s
    with bound^s <= ``tol``, one sweep later, a strict solve raises
    ``NonConvergenceError`` with its last true residual and the sweep count,
    and a non-strict one returns its last iterate.
    """
    b_norm = float(np.linalg.norm(b))
    cap = math.ceil(math.log(tol) / math.log(bound)) if bound > tol else 1
    y = b
    if start is not None and start[1] < bound * b_norm:
        y = start[0]
    for _ in range(cap):
        nxt = b - apply(y)
        r_norm = float(np.linalg.norm(y - nxt))
        y = nxt
        if bound * r_norm <= tol * b_norm:
            return y
    if strict:
        resid = r_norm / b_norm
        raise NonConvergenceError(
            f"Richardson iteration stalled at relative residual {resid:.3e} "
            f"(target {tol:.1e}) after {cap} sweeps",
            residual=resid, iterations=cap)
    return y


def _mapped_zeros(rows: int, cols: int) -> np.ndarray:
    """A complex zero array on its own anonymous mapping, whose pages become
    resident only once written.  Sized to a budget but mostly unwritten, an
    ordinary allocation would be advised into huge pages and, once freed,
    would raise the allocator's mmap threshold for the rest of the run."""
    buf = mmap.mmap(-1, 16 * rows * cols)
    return np.frombuffer(buf, dtype=np.complex128).reshape(rows, cols)


def arnoldi(apply, v0: np.ndarray, m_max: int):
    """Arnoldi process on K_m(apply, v0), one step per iteration.

    ``apply`` acts on and returns 1-d complex arrays; ``v0`` is a nonzero
    1-d start.  After step m it yields ``(m, basis, hess)``: rows 0..m of
    ``basis`` are orthonormal (row m only when h_{m+1,m} > 0) and
    ``hess[:m + 1, :m]`` is the Hessenberg matrix of the relation
    apply(basis[:m].T) = basis[:m + 1].T hess[:m + 1, :m].  Each new
    direction is orthogonalized by two passes of classical Gram-Schmidt.
    The process ends after ``min(m_max, v0.size)`` steps, or after the step
    whose new direction is exactly zero, when K_m is invariant.  The arrays
    are reused across steps, and ``basis`` is allocated for m_max + 1 rows
    but becomes resident only as rows are written.
    """
    size = v0.size
    m_max = min(m_max, size)
    if m_max < 1:
        return
    basis = _mapped_zeros(m_max + 1, size)
    hess = _mapped_zeros(m_max + 1, m_max)
    basis[0] = v0 / np.linalg.norm(v0)
    for j in range(m_max):
        w = apply(basis[j])
        v = basis[:j + 1]
        c1 = (v @ w.conj()).conj()
        w = w - c1 @ v
        c2 = (v @ w.conj()).conj()
        w -= c2 @ v
        hess[:j + 1, j] = c1 + c2
        tail = np.linalg.norm(w)
        hess[j + 1, j] = tail
        if tail > 0.0:
            basis[j + 1] = w / tail
        yield j + 1, basis, hess
        if tail == 0.0:
            return
