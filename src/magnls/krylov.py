"""The package's iterative kernels: restarted GMRES, Richardson's iteration,
the Arnoldi process and a block Davidson eigensolver.

Every Krylov-backend shifted solve is ``hamiltonian._krylov_shifted_solve``,
and a contraction bound it computes for the shift picks the solver here.
Below 1/2 it calls ``richardson``, as for every Crank-Nicolson step at
2i/dt, where the preconditioned system is close to the identity.  It is
one loop over an affine sweep map y -> b - K y, which the caller forms, so
that a CN step never forms b itself.  The bound also ends the iteration:
once it times the measured residual meets the tolerance relative to a
lower bound on ||b||, so does the corrected iterate.  A step of a long run
starts from the extrapolation of that state's earlier solves, whose
residual its first sweep measures, and is then usually one sweep.  Otherwise
it calls ``solve``: resolvent applications and deflated solves at the
ground-state energy.  (Small
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
the Crank-Nicolson powers of ``hamiltonian.cn_power``, a stack of one
start, and the Lanczos estimates of the weighted resolvent norms in
``analysis``, one start per frequency, advanced in lockstep.  It
orthogonalizes by two-pass classical Gram-Schmidt and never assumes the
operator Hermitian: the collocated magnetic H is not (Saad, Numerical
Methods for Large Eigenvalue Problems, 2nd ed., SIAM 2011).

The lowest eigenpairs of ``spectrum`` on the Krylov backend come from
``davidson``, a block generalized Davidson method on H itself (Davidson,
J. Comput. Phys. 17, 1975; Morgan and Scott, SIAM J. Sci. Stat. Comput. 7,
1986, for the preconditioned form; Sadkane, Numer. Math. 64, 1993, for
the unsymmetric block form; Stathopoulos, Saad and Wu, SIAM J. Sci.
Comput. 19, 1998, for the thick restart).  It applies the operator once
per new direction and runs no inner solve; its Ritz values come from
``np.linalg.eig`` of the projected matrix, so it does not assume H
Hermitian either.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

from .errors import NonConvergenceError

# a Davidson correction whose part orthogonal to the basis is below this
# fraction of its norm adds no direction
_DEPENDENT = 1e-10


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


def richardson(sweep, start: np.ndarray | None = None, *, bound: float,
               tol: float, strict: bool = True) -> np.ndarray:
    """Solve y + K y = b, for K with ||K|| <= ``bound`` < 1, by Richardson's
    iteration y <- b - K y (Saad, Iterative Methods for Sparse Linear
    Systems, 2nd ed., SIAM 2003, ch. 4), given as the affine ``sweep`` map
    y -> b - K y, with sweep(None) = b the map at y = 0.

    The iteration starts from ``start``, or from y = 0 when it is None,
    whose sweep gives b and ||b|| exactly without applying K.  Sweep s
    forms the corrected iterate y' = b - K y and measures the true residual
    r = y + K y - b = y - y' of the iterate before it; y' has the residual
    -K r, at most bound ||r||, and b = y' + K y gives the lower bound
    ||b|| >= ||y'|| - bound ||y||, the largest of which so far is kept.
    The iteration stops as soon as bound ||r|| <= ``tol`` times that bound
    and returns y', whose residual is then within ``tol`` ||b||; a start
    whose residual is at most ``tol`` ||b|| / bound so costs one sweep.
    From the first measured residual r1 on, ||r|| shrinks by ``bound`` a
    sweep, so the stop must come by the k-th sweep after it once
    bound^k r1 <= ``tol`` times the bound on ||b||; the cap allows one
    sweep more (from y = 0: the least s with bound^s <= ``tol``).  A start
    that bounds ||b|| by nothing positive is replaced by y = 0.  Only
    sweeps from a nonzero iterate count.  A strict solve that reaches its
    cap raises ``NonConvergenceError`` with its last true residual relative
    to the bound on ||b|| and the sweep count; a non-strict one returns its
    last iterate.
    """
    y, y_norm = start, 0.0 if start is None else float(np.linalg.norm(start))
    b_low, sweeps, limit = 0.0, 0, math.inf
    while limit > tol * b_low:
        nxt = sweep(y)
        nxt_norm = float(np.linalg.norm(nxt))
        r_norm = nxt_norm if y is None else float(np.linalg.norm(y - nxt))
        sweeps += y is not None
        # the new bound first: a nan bound stays nan and ends the loop
        b_low = max(nxt_norm - bound * y_norm, b_low)
        if bound * r_norm <= tol * b_low:
            return nxt
        if b_low <= 0.0:   # the start bounds ||b|| by nothing
            y, y_norm = None, 0.0
            continue
        # the first measured residual, then the bound on each next one
        limit = r_norm if limit == math.inf else bound * limit
        y, y_norm = nxt, nxt_norm
    resid = r_norm / b_low
    if strict:
        raise NonConvergenceError(
            f"Richardson iteration stalled at relative residual {resid:.3e} "
            f"(target {tol:.1e}) after {sweeps} sweeps",
            residual=resid, iterations=sweeps)
    return y


def _mapped_zeros(*shape: int) -> np.ndarray:
    """A complex zero array on its own anonymous mapping, whose pages become
    resident only once written.  Sized to a budget but mostly unwritten, an
    ordinary allocation would be advised into huge pages and, once freed,
    would raise the allocator's mmap threshold for the rest of the run."""
    buf = mmap.mmap(-1, 16 * math.prod(shape))
    return np.frombuffer(buf, dtype=np.complex128).reshape(shape)


def arnoldi(apply, v0: np.ndarray, m_max: int, live: np.ndarray | None = None):
    """Arnoldi processes on K_m(apply, v), one for each row v of ``v0``, all
    advancing in lockstep, one step per iteration.

    ``v0`` is a stack of K nonzero starts, shape (K, size); a single start
    is a stack of one.  ``apply`` maps a stack of rows to the stack of
    their images.  ``live``, a boolean mask over the K processes that the
    caller may hold, is read before each step, and only its true rows take
    the step; the caller retires a process by clearing its entry, and
    without a mask none is retired.  After step m it yields
    ``(m, rows, basis, hess)``, with ``rows`` the indices of the processes
    that took the step.  For each such row k, rows 0..m of ``basis[k]`` are
    orthonormal (row m only when h_{m+1,m} > 0) and ``hess[k, :m + 1, :m]``
    is the Hessenberg matrix of the relation
    apply(basis[k, :m].T) = basis[k, :m + 1].T hess[k, :m + 1, :m]; a
    retired process keeps the arrays of its last step.  Each new direction
    is orthogonalized by two passes of classical Gram-Schmidt, taken for
    all K processes as one ``np.matmul`` over the stacked bases, so each
    process is its own run, bit for bit.  A process whose new direction is
    exactly zero, when K_m is invariant, is retired here by clearing its
    ``live`` entry.  The processes end when none is live, or after
    ``min(m_max, size)`` steps.  The arrays are reused across steps, and
    ``basis`` is allocated for m_max + 1 rows per start but becomes
    resident only as rows are written.
    """
    count, size = v0.shape
    m_max = min(m_max, size)
    if m_max < 1:
        return
    if live is None:
        live = np.ones(count, dtype=bool)
    basis = _mapped_zeros(count, m_max + 1, size)
    hess = _mapped_zeros(count, m_max + 1, m_max)
    for k, v in enumerate(v0):
        basis[k, 0] = v / np.linalg.norm(v)
    for j in range(m_max):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            return
        if rows.size == count:   # every process live: views, no gathers
            sel, w = slice(None), apply(basis[:, j])
        else:   # a retired process orthogonalizes a zero direction
            sel, w = rows, np.zeros((count, size), dtype=np.complex128)
            w[rows] = apply(basis[rows, j])
        v = basis[:, :j + 1]
        c1 = np.matmul(v, w.conj()[..., None])[..., 0].conj()
        w = w - np.matmul(c1[:, None], v)[:, 0]
        c2 = np.matmul(v, w.conj()[..., None])[..., 0].conj()
        w -= np.matmul(c2[:, None], v)[:, 0]
        hess[sel, :j + 1, j] = (c1 + c2)[sel]
        for k in rows:
            tail = np.linalg.norm(w[k])
            hess[k, j + 1, j] = tail
            if tail > 0.0:
                basis[k, j + 1] = w[k] / tail
            else:
                live[k] = False
        yield j + 1, rows, basis, hess


def davidson(apply, precondition, v0: np.ndarray, tols, *, m_max: int,
             max_steps: int):
    """Block generalized Davidson for the ``len(tols)`` eigenpairs of lowest
    real part (Davidson, J. Comput. Phys. 17, 1975; Sadkane, Numer. Math.
    64, 1993, for the unsymmetric block form).

    ``apply`` maps a block of rows to the rows of the operator applied to
    each; ``precondition(r, theta)`` maps residual rows and their Ritz
    values to correction rows.  The basis V starts at ``v0`` and
    G = V* apply(V) grows by one row and one column per new vector.  Its
    eigenvalues, from ``np.linalg.eig`` and sorted by real part, are the
    Ritz values, so the operator need not be Hermitian.  Target i, the i-th
    lowest pair, has converged once |apply(x) - theta x| <= ``tols[i]`` for
    its unit Ritz vector x.  Each step adds the preconditioned residuals of
    the unconverged targets to V, by two passes of classical Gram-Schmidt
    against V as a block and then two within the new block, dropping a
    correction whose orthogonal part falls below ``_DEPENDENT`` of its
    norm, and applies the operator once to the whole new block.  A basis
    that would pass ``m_max`` rows restarts on the targets' Ritz vectors
    (a thick restart).  Returns the targets' Ritz values, their unit Ritz
    vectors (rows) and the number of steps run, once every target has
    converged, or after ``max_steps`` steps, or when no new direction is
    left, so a caller re-measures them.
    V and apply(V) are allocated for ``m_max`` rows and become resident
    only as rows are written.
    """
    size, want, tols = v0.size, len(tols), np.asarray(tols)
    m_max = min(m_max, size)
    basis = _mapped_zeros(m_max, size)
    h_basis = _mapped_zeros(m_max, size)
    gram = np.zeros((m_max, m_max), dtype=np.complex128)
    basis[0] = v0 / np.linalg.norm(v0)
    m, b = 0, 1
    for steps in range(1, max_steps + 1):
        h_basis[m:m + b] = apply(basis[m:m + b])
        # conjugate only the new rows, as arnoldi does
        gram[:m + b, m:m + b] = (basis[:m + b]
                                 @ h_basis[m:m + b].conj().T).conj()
        gram[m:m + b, :m] = basis[m:m + b].conj() @ h_basis[:m].T
        m += b
        theta, y = np.linalg.eig(gram[:m, :m])
        order = np.argsort(theta.real)[:want]
        theta, y = theta[order], y[:, order]
        x = y.T @ basis[:m]
        resid = y.T @ h_basis[:m] - theta[:, None] * x
        active = np.linalg.norm(resid, axis=1) > tols[:len(theta)]
        if (len(theta) == want and not active.any()) or m == size:
            break
        corr = precondition(resid[active], theta[active])
        if m + len(corr) > m_max:   # thick restart on the targets
            q, _ = np.linalg.qr(y)
            kept = q.shape[1]
            basis[:kept] = q.T @ basis[:m]
            h_basis[:kept] = q.T @ h_basis[:m]
            gram[:kept, :kept] = q.conj().T @ gram[:m, :m] @ q
            m = kept
        corr = corr[:m_max - m]
        floor = _DEPENDENT * np.linalg.norm(corr, axis=1)
        for _ in range(2):   # against V as a block, then within the block
            corr = corr - (basis[:m] @ corr.conj().T).conj().T @ basis[:m]
        b = 0
        for w, w_floor in zip(corr, floor):
            for _ in range(2):
                v = basis[m:m + b]
                w = w - (v @ w.conj()).conj() @ v
            tail = np.linalg.norm(w)
            if tail > w_floor:
                basis[m + b] = w / tail
                b += 1
        if b == 0:
            break
    return theta, x, steps
