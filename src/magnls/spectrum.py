"""Low-lying spectrum of the magnetic Schrodinger operator.

Strategy: ``_lowest_pairs`` is the one choice of method, and both
``ground_state`` and ``low_spectrum_scan`` take their eigenpairs from it.
On the dense backend (small electric-only grids) they are read from
``HamiltonianSpec.dense_basis``, the symmetric eigensolve that backend has
already run and checked; solving again would repeat a finished eigensolve.
Elsewhere they are Ritz pairs from the Arnoldi process (``krylov.arnoldi``)
on the shifted inverse (H - s)^-1, with s the quadratic-form lower bound
``hamiltonian.lower_bound`` (the bound that also sets the shift K of
H1 = H + K), then inverse-iteration refinement with an adaptive shift that
tracks the Rayleigh quotient from below.  Arnoldi rather than Lanczos,
because the collocated magnetic H is not Hermitian on the grid.  Every
inner linear solve there is ``hamiltonian.shifted_solve`` on the
preconditioned Krylov backend.  On either backend each eigenpair's residual
|H v - e v| is measured with the spectral H, and one rule judges every
level, for ``ground_state`` and ``low_spectrum_scan`` alike: a level below
-``_SCAN_GAP_TOL`` (1e-6) is bound, and a bound level whose residual
exceeds ``MAX_RESIDUAL`` (1e-9) is an error.  A ground state must be bound.

Every shifted solve whose result is only a direction, the Arnoldi steps and
the inverse iterations alike, runs at ``_DIRECTION_TOL`` (1e-6) and the
measured eigen-residual judges the outcome.  In inexact Krylov methods an
inner-solve error reaches the Ritz values only at the order of the inner
tolerance (Simoncini and Szyld, SIAM J. Sci. Comput. 25, 2003; Simoncini,
SIAM J. Numer. Anal. 43, 2005), and the Ritz pairs serve only as starts for
the refinement and as the unrefined second level behind ``EigenPair.gap``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MagnlsError, NoBoundStateError, NonConvergenceError
from .grid import ComplexField, make_field, norm_l2
from .hamiltonian import (HamiltonianSpec, _apply_h_values, lower_bound,
                          shifted_solve)
from .krylov import arnoldi
from .potentials import gaussian_bump

_RESIDUAL_TOL = 1e-10      # refinement target of every level
MAX_RESIDUAL = 1e-9        # a bound level with a larger residual is an error
_DIRECTION_TOL = 1e-6      # shifted solves whose result is a direction
# Krylov dimension for the lowest `count` levels: max(_ARNOLDI_STEPS,
# 12 count) shift-invert Arnoldi steps, so 24 for the ground state and the
# two lowest levels, 36 for three.  Fewer steps are unsafe: on the 64x64
# loop at loop_amplitude 2, twelve or fewer steps start the refinement off
# the ground state, which then converges to -2.29441 instead of
# e0 = -6.73917.
_ARNOLDI_STEPS = 24
_SCAN_GAP_TOL = 1e-6       # levels below minus this count as bound


@dataclass(frozen=True)
class EigenPair:
    """Ground state of H: eigenvalue (below -``_SCAN_GAP_TOL``), normalized
    phase-fixed eigenfunction, the residual ``_lowest_pairs`` measured, and
    the distance to the rest of the spectrum (capped at the continuum edge
    proxy 0).  The residual is |H v - e0 v| for the flat unit vector v,
    which equals ||H phi0 - e0 phi0|| in the volume-weighted norm.

    On the dense backend ``gap`` is exact: min(lam[1], 0) - lam[0] from the
    eigenbasis.  On the Krylov backend it is an estimate: its second level
    is the unrefined second Ritz value of the ``_ARNOLDI_STEPS``
    shift-invert steps, which need not have converged.  On the 64x64 loop
    at loop_amplitude 2 it reads 0.348, where 32 and 48 steps agree on
    0.1129."""

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


def _ritz_lowest(spec: HamiltonianSpec, how_many: int, *, steps: int):
    """Ritz approximations to the lowest eigenpairs of H from ``steps``
    Arnoldi steps on the shifted inverse (Krylov backend)."""
    g = spec.grid
    shift = lower_bound(spec.potentials)

    def inv_apply(v):
        f = make_field(g, v.reshape(g.sizes))
        return shifted_solve(spec, shift, f,
                             tol_rel=_DIRECTION_TOL).values.ravel()

    *_, (m, basis, hess) = arnoldi(inv_apply, _start_vector(spec), steps)
    theta, y = np.linalg.eig(hess[:m, :m])
    order = np.argsort(theta.real)[::-1]  # largest of the inverse = lowest of H
    out = []
    for idx in order[:how_many]:
        if theta[idx].real <= 0.0:
            continue
        e = shift + 1.0 / theta[idx].real
        vec = y[:, idx] @ basis[:m]
        out.append((float(e), vec / np.linalg.norm(vec)))
    if not out:
        raise NonConvergenceError(
            "Arnoldi on the shifted inverse produced no usable Ritz values")
    return out


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
    they are the Ritz pairs of max(``_ARNOLDI_STEPS``, 12 count)
    shift-invert Arnoldi steps, each refined by ``_refine_pair`` to
    ``_RESIDUAL_TOL`` in at most 60 iterations, deflated against the pairs
    before it; the next level is the unrefined Ritz value above them.  The
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
        ritz = _ritz_lowest(spec, count + 1,
                            steps=max(_ARNOLDI_STEPS, 12 * count))
        levels = []
        for e_est, v in ritz[:count]:
            levels.append(_refine_pair(spec, e_est, v,
                                       tuple(p[1] for p in levels)))
        e_next = ritz[count][0] if len(ritz) > count else 0.0
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
