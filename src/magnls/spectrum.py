"""Low-lying spectrum of the magnetic Schrodinger operator.

Strategy: ``_lowest_pairs`` is the one choice of method, and both
``ground_state`` and ``low_spectrum_scan`` take their eigenpairs from it.
On the dense backend (small electric-only grids) they are read from
``HamiltonianSpec.dense_basis``, the symmetric eigensolve that backend has
already run and checked; solving again would repeat a finished eigensolve.
Elsewhere they are Ritz pairs of H itself from a block generalized
Davidson method (``krylov.davidson``), preconditioned by the free
resolvent, then passed through inverse-iteration refinement with an
adaptive shift that tracks the Rayleigh quotient from below.  Davidson
needs one application of H per new direction and no inner solve; the
Arnoldi process on the shifted inverse (H - s)^-1 that it replaces made
every step a GMRES solve.  Its Ritz values come from ``np.linalg.eig`` of
the projected matrix, because the collocated magnetic H is not Hermitian
on the grid, which is also why LOBPCG, which assumes it is, stalls here.
The Davidson phase converges each wanted level to ``_RESIDUAL_TOL``, so
the refinement usually returns after one application of H; it stays the
arbiter, and its inverse iterations, ``hamiltonian.shifted_solve`` on the
preconditioned Krylov backend, run only where the Davidson phase fell
short.  On either backend each eigenpair's residual |H v - e v| is
measured with the spectral H, and one rule judges every level, for
``ground_state`` and ``low_spectrum_scan`` alike: a level below
-``_SCAN_GAP_TOL`` (1e-6) is bound, and a bound level whose residual
exceeds ``MAX_RESIDUAL`` (1e-9) is an error.  A ground state must be bound.

Every shifted solve whose result is only a direction, the inverse
iterations, runs at ``_DIRECTION_TOL`` (1e-6) and the measured
eigen-residual judges the outcome.  The level above the wanted ones, behind
``EigenPair.gap``, is a Davidson target converged to the same
``_DIRECTION_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MagnlsError, NoBoundStateError, NonConvergenceError
from .grid import ComplexField, make_field, norm_l2, stack_fft, stack_ifft
from .hamiltonian import HamiltonianSpec, _apply_h_values, shifted_solve
from .krylov import davidson
from .potentials import gaussian_bump

_RESIDUAL_TOL = 1e-10      # refinement target of every level
MAX_RESIDUAL = 1e-9        # a bound level with a larger residual is an error
_DIRECTION_TOL = 1e-6      # shifted solves whose result is a direction
# the Davidson preconditioner's shift sigma is at most minus this, so that
# |k|^2 - sigma stays positive for Ritz values at or above 0.  From 0.03
# down to 0.001 the ground states of the 16x16 to 64x64 loops take 20-23
# applications of H; at 1 they take 37-40.
_PRECONDITION_GAP = 1e-2
_BASIS_CAP = 48            # Davidson basis rows before a thick restart
_DAVIDSON_STEPS = 100      # Davidson steps before the refinement takes over
_SCAN_GAP_TOL = 1e-6       # levels below minus this count as bound


@dataclass(frozen=True)
class EigenPair:
    """Ground state of H: eigenvalue (below -``_SCAN_GAP_TOL``), normalized
    phase-fixed eigenfunction, the residual ``_lowest_pairs`` measured, and
    the distance to the rest of the spectrum (capped at the continuum edge
    proxy 0).  The residual is |H v - e0 v| for the flat unit vector v,
    which equals ||H phi0 - e0 phi0|| in the volume-weighted norm.

    On the dense backend ``gap`` is exact: min(lam[1], 0) - lam[0] from the
    eigenbasis.  On the Krylov backend its second level is the second
    Davidson target, a Ritz value converged to a residual of
    ``_DIRECTION_TOL`` but not refined: 0.112858 on the 64x64 loop at
    loop_amplitude 2, and within 2e-9 of the dense oracle on the 16x16
    one."""

    e0: float
    phi0: ComplexField
    residual: float
    gap: float


@dataclass(frozen=True)
class SpectrumScan:
    """Lowest eigenvalues with residuals, plus the bound-state count verdict."""

    pairs: tuple[tuple[float, float], ...]
    n_negative: int
    unique_negative: bool

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(e for e, _ in self.pairs)


def _start_vector(spec: HamiltonianSpec) -> np.ndarray:
    """A centred Gaussian with a small first-moment tilt along every axis.

    The tilt gives the start both parities on each axis: an even start on a
    parity-symmetric potential spans only even states, and its Krylov space
    skips the odd levels.  A small tilt keeps the start close to the ground
    state, which the refinement converges from.
    """
    g = spec.grid
    width = min(g.box_lengths) / 8.0
    tilt = 1.0 + 0.1 * sum(g.coords) / width
    v = gaussian_bump(g, 1.0, width).values * tilt
    return (v / np.linalg.norm(v.ravel())).ravel()


def _ritz_lowest(spec: HamiltonianSpec, count: int):
    """Ritz approximations to the ``count`` + 1 lowest eigenpairs of H, as
    complex Ritz values and unit Ritz vectors (rows), from the block
    Davidson kernel ``krylov.davidson`` (Krylov backend).

    H is applied to each block in one stacked ``_apply_h_values`` call.  A
    residual with Ritz value theta is preconditioned by the free resolvent
    (|k|^2 - sigma)^-1, sigma = min(Re theta, -``_PRECONDITION_GAP``), with
    one batched transform pair for the block.  The first ``count`` pairs
    converge to ``_RESIDUAL_TOL``, the last, behind ``EigenPair.gap``, to
    ``_DIRECTION_TOL``.
    """
    g = spec.grid
    rows = (-1,) + g.sizes

    def apply(block):
        return _apply_h_values(spec, block.reshape(rows)).reshape(block.shape)

    def precondition(resid, theta):
        sigma = np.minimum(theta.real, -_PRECONDITION_GAP)
        fhat = stack_fft(g, resid.reshape(rows))
        fhat /= g.k_squared - sigma.reshape((-1,) + (1,) * g.dim)
        return stack_ifft(g, fhat, overwrite_x=True).reshape(resid.shape)

    return davidson(apply, precondition, _start_vector(spec),
                    (_RESIDUAL_TOL,) * count + (_DIRECTION_TOL,),
                    m_max=_BASIS_CAP, max_steps=_DAVIDSON_STEPS)


def _refine_pair(spec: HamiltonianSpec, e: float, v: np.ndarray,
                 deflate_against=()):
    """Inverse iteration with shift just below the Rayleigh quotient, to
    ``_RESIDUAL_TOL`` in at most 60 iterations.

    Direction-improving solves run at ``_DIRECTION_TOL`` and are allowed to
    stall; the measured eigen-residual is the sole arbiter of convergence.
    Returns (e, v, residual, imag) for the best iterate, with imag =
    |Im <v, H v>|: a residual that stalls near it marks an eigenvalue off the
    real axis, which the real shift cannot reach.
    """
    g = spec.grid
    shape = g.sizes

    def project_out(w):
        for b in deflate_against:
            w = w - np.vdot(b, w) * b
        return w

    v = project_out(v)
    v = v / np.linalg.norm(v)
    best = (np.inf, e, v, 0.0)
    prev_e = None
    worse = 0
    for _ in range(60):
        hv = _apply_h_values(spec, v.reshape(shape)).ravel()
        rayleigh = complex(np.vdot(v, hv))
        e, imag = rayleigh.real, abs(rayleigh.imag)
        resid = float(np.linalg.norm(hv - e * v))
        if resid < best[0]:
            best = (resid, e, v, imag)
            worse = 0
        else:
            worse += 1
            if worse >= 3:
                break
        settled = prev_e is None or abs(e - prev_e) <= 1e-12 * max(1.0, abs(e))
        if resid <= _RESIDUAL_TOL and settled:
            return e, v, resid, imag
        sigma = e - max(5.0 * resid, 1e-9)
        f = make_field(g, v.reshape(shape))
        w = shifted_solve(spec, sigma, f, tol_rel=_DIRECTION_TOL,
                          strict=False).values.ravel()
        w = project_out(w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        prev_e, v = e, w / nw
    resid, e, v, imag = best
    return e, v, resid, imag


def _phase_fix(values: np.ndarray) -> np.ndarray:
    pivot = values.ravel()[int(np.argmax(np.abs(values)))]
    mag = abs(pivot)
    if mag == 0.0:
        return values
    return values * (pivot.conjugate() / mag)


def _lowest_pairs(spec: HamiltonianSpec, count: int):
    """The ``count`` lowest eigenpairs of H, lowest first, as
    (e, v, residual) with v a flat unit vector, and the level next above
    them (0.0 when there is none).

    On the dense backend they are columns of ``spec.dense_basis``, exact to
    its check, and lam[count] is the next level.  On the Krylov backend
    they are the lowest ``count`` Davidson pairs of ``_ritz_lowest``, each
    refined by ``_refine_pair`` to ``_RESIDUAL_TOL`` in at most 60
    iterations, deflated against the pairs before it; the next level is
    the real part of the Davidson target above them, unrefined.  The
    residual is |H v - e v| with the spectral H.  A level below
    -``_SCAN_GAP_TOL`` whose residual exceeds ``MAX_RESIDUAL`` raises
    ``NonConvergenceError``.
    """
    basis = spec.dense_basis
    if basis is not None:
        lam = basis.lam
        vecs = np.ascontiguousarray(basis.u[:, :count].T, dtype=np.complex128)
        hv = _apply_h_values(spec, vecs.reshape((-1,) + spec.grid.sizes))
        hv = hv.reshape(vecs.shape) - lam[:count, None] * vecs
        levels = [(float(e), v, float(r), 0.0)
                  for e, v, r in zip(lam, vecs, np.linalg.norm(hv, axis=1))]
        e_next = float(lam[count]) if count < len(lam) else 0.0
    else:
        theta, x = _ritz_lowest(spec, count)
        levels = []
        for e_est, v in zip(theta[:count].real, x):
            levels.append(_refine_pair(spec, e_est, v,
                                       tuple(p[1] for p in levels)))
        e_next = float(theta[count].real) if len(theta) > count else 0.0
    for e, _, resid, imag in levels:
        if e < -_SCAN_GAP_TOL and resid > MAX_RESIDUAL:
            detail = ""
            if imag > MAX_RESIDUAL:
                detail = (f"; the eigenvalue near {e:.6e} has imaginary part "
                          f"of magnitude {imag:.3e}; the collocated operator "
                          f"is not Hermitian at this resolution")
            raise NonConvergenceError(
                f"eigenvalue near {e:.6e} stalled at residual "
                f"{resid:.3e}{detail}", residual=resid)
    return [level[:3] for level in levels], e_next


def ground_state(spec: HamiltonianSpec) -> EigenPair:
    """Lowest eigenpair of H; raises ``NoBoundStateError`` unless the bottom
    of the spectrum lies below -``_SCAN_GAP_TOL``, the rule by which
    ``low_spectrum_scan`` counts a level as bound."""
    [(e, v, resid)], e_next = _lowest_pairs(spec, 1)
    if e >= -_SCAN_GAP_TOL:
        raise NoBoundStateError(
            f"lowest eigenvalue {e:.6e} is not below -{_SCAN_GAP_TOL:g}")
    g = spec.grid
    phi = make_field(g, _phase_fix(v).reshape(g.sizes))
    # the flat residual of the unit vector v is the volume-weighted one of phi
    phi = make_field(g, phi.values / norm_l2(phi))
    return EigenPair(e0=float(e), phi0=phi, residual=float(resid),
                     gap=float(min(e_next, 0.0) - e))


def low_spectrum_scan(spec: HamiltonianSpec, count: int = 4) -> SpectrumScan:
    """The ``count`` lowest eigenvalues (count <= 8) with their residuals,
    and whether exactly one falls below -1e-6."""
    if not (1 <= count <= 8):
        raise MagnlsError(f"scan count must be between 1 and 8, got {count}")
    found, _ = _lowest_pairs(spec, count)
    pairs = sorted(((e, resid) for e, _, resid in found), key=lambda t: t[0])
    n_neg = sum(1 for e, _ in pairs if e < -_SCAN_GAP_TOL)
    return SpectrumScan(pairs=tuple(pairs), n_negative=n_neg,
                        unique_negative=(n_neg == 1))
