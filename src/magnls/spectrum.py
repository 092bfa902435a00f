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
is measured with the spectral H and judged by the same checks.

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

_RESIDUAL_TOL = 1e-10      # ground-state refinement target
MAX_RESIDUAL = 1e-9        # a ground state with a larger residual is an error
_DIRECTION_TOL = 1e-6      # shifted solves whose result is a direction
# Ground-state Krylov dimension.  Fewer steps are unsafe: on the 64x64 loop
# at loop_amplitude 2, twelve or fewer steps start the refinement off the
# ground state, which then converges to -2.29441 instead of e0 = -6.73917.
_ARNOLDI_STEPS = 24
_SCAN_GAP_TOL = 1e-6       # scan levels below -gap_tol count as bound
_SCAN_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class EigenPair:
    """Ground state of H: eigenvalue, normalized phase-fixed eigenfunction,
    achieved residual, and the distance to the rest of the spectrum
    (capped at the continuum edge proxy 0).

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
    gap_tol: float

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
    r2 = sum(x * x for x in g.coords)
    tilt = 1.0 + 0.1 * sum(g.coords) / width
    v = (np.exp(-r2 / width**2) * tilt).astype(np.complex128)
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


def _refine_pair(spec: HamiltonianSpec, e: float, v: np.ndarray, *,
                 residual_tol: float, deflate_against=(),
                 max_refine: int = 60):
    """Inverse iteration with shift just below the Rayleigh quotient.

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
    for _ in range(max_refine):
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
        if resid <= residual_tol and settled:
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


def _lowest_pairs(spec: HamiltonianSpec, count: int, *, steps: int,
                  residual_tol: float, max_refine: int, check):
    """The ``count`` lowest eigenpairs of H, lowest first, as
    (e, v, residual, imag) with v a flat unit vector, and the level next
    above them (0.0 when there is none).

    On the dense backend they are columns of ``spec.dense_basis``, exact to
    its check, with imag = 0 and lam[count] the next level.  On the Krylov
    backend they are the Ritz pairs of ``steps`` shift-invert Arnoldi steps,
    each refined by ``_refine_pair`` to ``residual_tol`` in at most
    ``max_refine`` iterations, deflated against the pairs before it; the
    next level is the unrefined Ritz value above them.  The residual is
    |H v - e v| with the spectral H, and ``check(e, residual, imag)`` raises
    for a pair that failed.
    """
    basis = spec.dense_basis
    if basis is not None:
        lam = basis.lam
        vecs = np.ascontiguousarray(basis.u[:, :count].T, dtype=np.complex128)
        hv = _apply_h_values(spec, vecs.reshape((-1,) + spec.grid.sizes))
        hv = hv.reshape(vecs.shape) - lam[:count, None] * vecs
        pairs = [(float(e), v, float(r), 0.0)
                 for e, v, r in zip(lam, vecs, np.linalg.norm(hv, axis=1))]
        for e, _, resid, imag in pairs:
            check(e, resid, imag)
        return pairs, float(lam[count]) if count < len(lam) else 0.0
    ritz = _ritz_lowest(spec, count + 1, steps=steps)
    pairs = []
    for e_est, v in ritz[:count]:
        e, vec, resid, imag = _refine_pair(
            spec, e_est, v, residual_tol=residual_tol,
            deflate_against=tuple(p[1] for p in pairs),
            max_refine=max_refine)
        check(e, resid, imag)
        pairs.append((e, vec, resid, imag))
    return pairs, ritz[count][0] if len(ritz) > count else 0.0


def _check_ground(e: float, resid: float, imag: float) -> None:
    if resid > MAX_RESIDUAL:
        detail = ""
        if imag > MAX_RESIDUAL:
            detail = (f"; lowest eigenvalue has imaginary part of magnitude "
                      f"{imag:.3e}; the collocated operator is not Hermitian "
                      f"at this resolution")
        raise NonConvergenceError(
            f"eigenpair refinement stalled at residual {resid:.3e}{detail}",
            residual=resid)


def _check_scan(e: float, resid: float, imag: float) -> None:
    if e < -_SCAN_GAP_TOL and resid > 1e-8:
        raise NonConvergenceError(
            f"negative eigenvalue near {e:.6e} stalled at residual {resid:.3e}",
            residual=resid)


def ground_state(spec: HamiltonianSpec) -> EigenPair:
    """Lowest eigenpair of H; raises ``NoBoundStateError`` when the bottom of
    the spectrum is not strictly negative."""
    [(e, v, _, _)], e_next = _lowest_pairs(
        spec, 1, steps=_ARNOLDI_STEPS, residual_tol=_RESIDUAL_TOL,
        max_refine=60, check=_check_ground)
    if e >= -1e-10:
        raise NoBoundStateError(
            f"lowest eigenvalue {e:.6e} is not strictly negative")
    gap = min(e_next, 0.0) - e

    g = spec.grid
    values = _phase_fix(v).reshape(g.sizes)
    phi = make_field(g, values)
    phi = make_field(g, phi.values / norm_l2(phi))
    # residual in the volume-weighted norm equals the flat one for unit vectors
    hphi = _apply_h_values(spec, phi.values)
    resid = norm_l2(make_field(g, hphi - e * phi.values))
    return EigenPair(e0=float(e), phi0=phi, residual=float(resid), gap=float(gap))


def low_spectrum_scan(spec: HamiltonianSpec, count: int = 4) -> SpectrumScan:
    """The ``count`` lowest eigenvalues (count <= 8) with their residuals,
    and whether exactly one falls below -1e-6."""
    if not (1 <= count <= 8):
        raise MagnlsError(f"scan count must be between 1 and 8, got {count}")
    found, _ = _lowest_pairs(
        spec, count, steps=max(40, 12 * count),
        residual_tol=_SCAN_RESIDUAL_TOL, max_refine=30, check=_check_scan)
    pairs = sorted(((e, resid) for e, _, resid, _ in found),
                   key=lambda t: t[0])
    n_neg = sum(1 for e, _ in pairs if e < -_SCAN_GAP_TOL)
    return SpectrumScan(pairs=tuple(pairs), n_negative=n_neg,
                        unique_negative=(n_neg == 1), gap_tol=_SCAN_GAP_TOL)
