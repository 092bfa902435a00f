"""The GMRES wrapper: stall reports carry the iterations actually run."""

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
    # Every GMRES step applies the operator once.  The other applications:
    # one residual per restart cycle, one initial residual for each attempt
    # that starts from the previous iterate, and one true residual per attempt.
    attempts = 3
    cycles = attempts * (max_iter // restart)
    steps = applied - cycles - (attempts - 1) - attempts
    assert steps == cycles * restart
    assert err.value.iterations == steps
    assert err.value.iterations > max_iter
    assert f"after {steps} GMRES iterations" in str(err.value)
