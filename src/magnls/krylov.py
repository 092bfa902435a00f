"""Thin deterministic wrapper around restarted GMRES on flat complex arrays.

Every linear solve on the Krylov backend funnels through ``solve``, called
only from ``hamiltonian._krylov_shifted_solve``: resolvent applications,
deflated solves at the ground-state energy, the eigensolver's inverse
iterations and the Crank-Nicolson step, which is a shifted solve at 2i/dt.
(Small electric-only grids solve directly in a dense eigenbasis instead;
see ``hamiltonian``.)  The caller hands over an already preconditioned
operator, so GMRES runs without ``M`` and its running residual estimate is
the residual of the system it solves.  Each solve is one
``scipy.sparse.linalg.gmres`` call.  scipy ends every restart cycle on the
recomputed residual ||b - Ax|| and reports success only when that residual
meets ``rtol``; when rounding lets the running estimate pass first, it
tightens its inner tolerance and opens another cycle.  A strict solve that
runs out of cycles raises ``NonConvergenceError`` with the achieved residual
and the number of GMRES iterations it ran.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import NonConvergenceError


def solve(matvec, b: np.ndarray, *, tol: float = 1e-8,
          max_iter: int = 10000, x0: np.ndarray | None = None,
          restart: int = 150, strict: bool = True) -> np.ndarray:
    """Solve matvec(x) = b to relative residual ``tol`` in the 2-norm.

    ``matvec`` acts on and returns 1-d complex arrays.
    ``max_iter`` is the GMRES step budget, run as ``max_iter // restart``
    restart cycles (at least one).  With ``strict=False`` a solve that
    misses ``tol`` returns its last iterate instead of raising; callers that
    only need a direction (inverse iteration) use that mode and re-measure
    what they care about.
    """
    n = b.size
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b)

    op = LinearOperator((n, n), matvec=matvec, dtype=np.complex128)

    restart = min(restart, n)
    iterations = 0

    def count(_residual):
        nonlocal iterations
        iterations += 1

    x, info = gmres(op, b, x0=x0, rtol=tol, atol=0.0, restart=restart,
                    maxiter=max(1, max_iter // restart), callback=count,
                    callback_type="pr_norm")
    if info == 0 or not strict:
        return x
    resid = float(np.linalg.norm(matvec(x) - b)) / b_norm
    raise NonConvergenceError(
        f"linear solve stalled at relative residual {resid:.3e} "
        f"(target {tol:.1e}) after {iterations} GMRES iterations",
        residual=resid, iterations=iterations)
