"""Thin deterministic wrapper around restarted GMRES on flat complex arrays.

Every linear solve on the Krylov backend funnels through ``solve``, called
only from ``hamiltonian._krylov_shifted_solve``: resolvent applications,
deflated solves at the ground-state energy, the eigensolver's inverse
iterations and the Crank-Nicolson step, which is a shifted solve at 2i/dt.
(Small electric-only grids solve directly in a dense eigenbasis instead;
see ``hamiltonian``.)  The wrapper
enforces the *true* residual (scipy's stopping test sees the preconditioned
one), retries with a tighter inner tolerance when needed, and raises
``NonConvergenceError`` with the achieved residual and the number of inner
GMRES iterations it ran otherwise.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import NonConvergenceError


def solve(matvec, b: np.ndarray, *, precond=None, tol: float = 1e-8,
          max_iter: int = 10000, x0: np.ndarray | None = None,
          restart: int = 150, strict: bool = True) -> np.ndarray:
    """Solve matvec(x) = b to relative residual ``tol`` in the 2-norm.

    ``matvec`` and ``precond`` act on and return 1-d complex arrays.
    ``precond`` approximates the inverse operator (left preconditioning).
    With ``strict=False`` a stalled solve returns its best iterate instead
    of raising; callers that only need a direction (inverse iteration) use
    that mode and re-measure what they care about.
    """
    n = b.size
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b)

    op = LinearOperator((n, n), matvec=matvec, dtype=np.complex128)
    m = (LinearOperator((n, n), matvec=precond, dtype=np.complex128)
         if precond is not None else None)

    x = x0
    inner_tol = tol
    restart = min(restart, n)
    best_resid = np.inf
    best_x = None
    iterations = 0

    def count(_residual):
        nonlocal iterations
        iterations += 1

    for _ in range(3):
        x, _info = gmres(op, b, x0=x, M=m, rtol=inner_tol, atol=0.0,
                         restart=restart, maxiter=max(1, max_iter // restart),
                         callback=count, callback_type="pr_norm")
        resid = float(np.linalg.norm(matvec(x) - b)) / b_norm
        if resid < best_resid:
            best_resid, best_x = resid, x
        if resid <= tol:
            return x
        inner_tol = max(inner_tol * 1e-2, 1e-16)
    if not strict:
        return best_x
    raise NonConvergenceError(
        f"linear solve stalled at relative residual {best_resid:.3e} "
        f"(target {tol:.1e}) after {iterations} GMRES iterations",
        residual=best_resid, iterations=iterations)
