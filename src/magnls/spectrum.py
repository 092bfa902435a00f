"""Low-lying spectrum of the magnetic Schrodinger operator.

Strategy: ``_lowest_pairs`` is the one choice of method, and both
``ground_state`` and ``low_spectrum_scan`` take their eigenpairs from it.
On the dense backend (small electric-only grids) they are read from
``HamiltonianSpec.dense_basis``, the symmetric eigensolve that backend has
already run and checked; solving again would repeat a finished eigensolve.
Elsewhere they are the Ritz pairs of H itself from a block generalized
Davidson method (``krylov.davidson``), preconditioned by the free
resolvent, which needs one application of H per new direction and no
inner solve.  Its Ritz values come from ``np.linalg.eig`` of the projected
matrix, because the collocated magnetic H is not Hermitian on the grid,
which is also why LOBPCG, which assumes it is, stalls here.  For the same
reason the eigenvectors are not orthogonal, and no level is deflated
against the ones below it: each wanted level is a Davidson pair converged
to ``_RESIDUAL_TOL``, with e the real part of its Ritz value.  On either
backend the residuals |H v - e v| are measured with the spectral H in one
stacked application, and one rule judges every level, for
``ground_state`` and ``low_spectrum_scan`` alike: a level below
-``_SCAN_GAP_TOL`` (1e-6) is bound, and a bound level whose residual
exceeds ``MAX_RESIDUAL`` (1e-9) is an error.  A ground state must be bound.
The level above the wanted ones, behind ``EigenPair.gap``, is a Davidson
target converged to ``_DIRECTION_TOL`` (1e-6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MagnlsError, NoBoundStateError, NonConvergenceError
from .grid import ComplexField, make_field, norm_l2, stack_fft, stack_ifft
from .hamiltonian import HamiltonianSpec, _apply_h_values
from .krylov import davidson
from .potentials import gaussian_bump

_RESIDUAL_TOL = 1e-10      # Davidson target of every wanted level
MAX_RESIDUAL = 1e-9        # a bound level with a larger residual is an error
_DIRECTION_TOL = 1e-6      # Davidson target of the level above them
# the Davidson preconditioner's shift sigma is at most minus this, so that
# |k|^2 - sigma stays positive for Ritz values at or above 0.  From 0.03
# down to 0.001 the ground states of the 16x16 to 64x64 loops take 20-23
# applications of H; at 1 they take 37-40.
_PRECONDITION_GAP = 1e-2
_BASIS_CAP = 48            # Davidson basis rows before a thick restart
_DAVIDSON_STEPS = 100      # Davidson steps before the levels are judged
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
    Davidson target, a Ritz value converged only to a residual of
    ``_DIRECTION_TOL``: 0.112858 on the 64x64 loop at
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
    state.
    """
    g = spec.grid
    width = min(g.box_lengths) / 8.0
    tilt = 1.0 + 0.1 * sum(g.coords) / width
    v = gaussian_bump(g, 1.0, width).values * tilt
    return (v / np.linalg.norm(v.ravel())).ravel()


def _ritz_lowest(spec: HamiltonianSpec, count: int):
    """Ritz approximations to the ``count`` + 1 lowest eigenpairs of H, as
    complex Ritz values and unit Ritz vectors (rows), and the number of
    steps run, from the block Davidson kernel ``krylov.davidson`` (Krylov
    backend).

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

    On the dense backend they are the lowest eigenvalues and columns of
    ``spec.dense_basis``, exact to its check.  On the Krylov backend they
    are the lowest ``count`` Davidson pairs of ``_ritz_lowest``, with
    e = Re theta, and the next level is the real part of the Davidson
    target above them.  The residual is |H v - e v| with the spectral H.
    A level below -``_SCAN_GAP_TOL`` whose residual exceeds
    ``MAX_RESIDUAL`` raises ``NonConvergenceError`` with the Davidson steps
    run, and names |Im theta| when that exceeds ``MAX_RESIDUAL`` too.
    """
    basis = spec.dense_basis
    if basis is not None:
        theta, x, steps = basis.lam[:count + 1], basis.u[:, :count].T, 0
    else:
        theta, x, steps = _ritz_lowest(spec, count)
    vecs = np.ascontiguousarray(x[:count], dtype=np.complex128)
    e, imag = theta[:count].real, np.abs(theta[:count].imag)
    hv = _apply_h_values(spec, vecs.reshape((-1,) + spec.grid.sizes))
    resid = np.linalg.norm(hv.reshape(vecs.shape) - e[:, None] * vecs, axis=1)
    for e_i, r_i, imag_i in zip(e, resid, imag):
        if e_i < -_SCAN_GAP_TOL and r_i > MAX_RESIDUAL:
            detail = ""
            if imag_i > MAX_RESIDUAL:
                detail = (f"; the eigenvalue near {e_i:.6e} has imaginary "
                          f"part of magnitude {imag_i:.3e}; the collocated "
                          f"operator is not Hermitian at this resolution")
            raise NonConvergenceError(
                f"eigenvalue near {e_i:.6e} stalled at residual {r_i:.3e} "
                f"after {steps} Davidson steps{detail}",
                residual=float(r_i), iterations=steps)
    e_next = float(theta[count].real) if len(theta) > count else 0.0
    levels = [(float(e_i), v, float(r_i))
              for e_i, v, r_i in zip(e, vecs, resid)]
    return levels, e_next


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
    pairs = [(e, resid) for e, _, resid in found]
    n_neg = sum(1 for e, _ in pairs if e < -_SCAN_GAP_TOL)
    return SpectrumScan(pairs=tuple(pairs), n_negative=n_neg,
                        unique_negative=(n_neg == 1))
