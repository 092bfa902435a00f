"""The magnetic Schrodinger operator and its resolvent.

H f = -lap f + 2i A . grad f + i (div A) f + V f

with spectral derivatives and pointwise products.  ``HamiltonianSpec`` also
fixes the positive shift K for the auxiliary operator H1 = H + K used by the
elliptic-regularity check; by default K follows the rule

    K = sup|V| + sup|div A| + c_pos + 1,   c_pos = 1,

which keeps H1 uniformly positive for the moderate vector potentials this
laboratory runs with.  Tests may pass an explicit (even zero) shift to probe
what breaks without it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import krylov
from .errors import MagnlsError
from .grid import (
    ComplexField,
    GridSpec,
    VectorField,
    inner_l2,
    make_field,
    norm_l2,
)
from .potentials import PotentialPair, build_gauge_field, make_potential_pair

# every resolvent solve needs |Im zeta| at least this far off the real axis
MIN_IMAG_SHIFT = 1e-8
_C_POS = 1.0


@dataclass(frozen=True)
class HamiltonianSpec:
    potentials: PotentialPair
    k_shift: float

    def __post_init__(self):
        if self.k_shift < 0.0:
            raise MagnlsError(f"k_shift must be >= 0, got {self.k_shift}")

    @property
    def grid(self) -> GridSpec:
        return self.potentials.grid


def default_k_shift(potentials: PotentialPair) -> float:
    sup_v = float(np.max(np.abs(potentials.v.values)))
    sup_div = float(np.max(np.abs(potentials.div_a.values)))
    return sup_v + sup_div + _C_POS + 1.0


def build_hamiltonian(potentials: PotentialPair, *,
                      k_shift: float | None = None) -> HamiltonianSpec:
    if k_shift is None:
        k_shift = default_k_shift(potentials)
    return HamiltonianSpec(potentials=potentials, k_shift=k_shift)


def apply_h(spec: HamiltonianSpec, f: ComplexField) -> ComplexField:
    if f.grid != spec.grid:
        raise MagnlsError("field grid does not match operator grid")
    return make_field(spec.grid, _apply_h_values(spec, f.values))


def _apply_h_values(spec: HamiltonianSpec, values: np.ndarray) -> np.ndarray:
    g = spec.grid
    pot = spec.potentials
    fhat = np.fft.fftn(values)
    out = np.fft.ifftn(g.k_squared * fhat)  # -lap
    a_comps = pot.a.components
    if any(np.any(c.values) for c in a_comps):
        for j in range(g.dim):
            grad_j = np.fft.ifftn(1j * g.k_mesh[j] * fhat)
            out += 2j * a_comps[j].values * grad_j
        out += 1j * pot.div_a.values * values
    out += pot.v.values * values
    return out


def apply_h1(spec: HamiltonianSpec, f: ComplexField) -> ComplexField:
    """H1 f = H f + K f."""
    return make_field(spec.grid,
                      _apply_h_values(spec, f.values) + spec.k_shift * f.values)


def gauge_transform(spec: HamiltonianSpec, chi: ComplexField) -> HamiltonianSpec:
    """Change of gauge A -> A + grad(chi) for the operator written without
    an |A|^2 term.

    In this representation the scalar potential is V = W - |A|^2 for a
    gauge-fixed W, so the covariance map also sends
    V -> V + 2 A . grad(chi) + |grad(chi)|^2.  The spectrum is then exactly
    invariant and eigenfunctions pick up the phase factor exp(+i chi).
    """
    if chi.grid != spec.grid:
        raise MagnlsError("gauge function grid does not match operator grid")
    pot = spec.potentials
    grad_chi = build_gauge_field(chi)
    new_comps = tuple(
        make_field(spec.grid, a.values.real + d.values.real)
        for a, d in zip(pot.a.components, grad_chi.components)
    )
    cross = sum(a.values.real * d.values.real
                for a, d in zip(pot.a.components, grad_chi.components))
    square = sum(d.values.real**2 for d in grad_chi.components)
    new_v = make_field(spec.grid, pot.v.values.real + 2.0 * cross + square)
    new_pot = make_potential_pair(
        VectorField(new_comps), new_v,
        decay_eps=pot.decay_eps, lq_exponent=pot.lq_exponent)
    return HamiltonianSpec(potentials=new_pot, k_shift=spec.k_shift)


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------

def shifted_solve(spec: HamiltonianSpec, zeta: complex, f: ComplexField, *,
                  tol_rel: float = 1e-8, max_iter: int = 10000,
                  deflate: tuple[np.ndarray, float] | None = None,
                  x0: np.ndarray | None = None,
                  strict: bool = True) -> ComplexField:
    """Solve (H - zeta) u = f, optionally with a rank-one deflation term.

    ``deflate=(w, c)`` adds c * w <w, .> to the operator (volume-weighted
    inner product), which moves a known eigenvalue away from the shift.
    The preconditioner is the free resolvent: division by (|k|^2 - zeta)
    in frequency space, regularized never to vanish.
    """
    g = spec.grid
    shape = g.sizes
    dv = g.volume_element

    diag = g.k_squared - zeta
    small = np.abs(diag) < 1e-10
    if np.any(small):
        diag = np.where(small, 1e-10, diag)

    def matvec(v):
        arr = v.reshape(shape)
        out = _apply_h_values(spec, arr) - zeta * arr
        if deflate is not None:
            w, c = deflate
            out = out + c * np.vdot(w, arr) * dv * w
        return out.ravel()

    def precond(v):
        return (np.fft.ifftn(np.fft.fftn(v.reshape(shape)) / diag)).ravel()

    x = krylov.solve(matvec, f.values.ravel(), precond=precond,
                     tol=tol_rel, max_iter=max_iter, x0=x0, strict=strict)
    return make_field(g, x.reshape(shape))


def resolvent_solve(spec: HamiltonianSpec, zeta: complex, f: ComplexField, *,
                    tol_rel: float = 1e-8, strict: bool = True) -> ComplexField:
    """Resolvent application (H - zeta)^-1 f for zeta off the real axis."""
    if abs(complex(zeta).imag) < MIN_IMAG_SHIFT:
        raise MagnlsError(
            f"resolvent shift must satisfy |Im zeta| >= {MIN_IMAG_SHIFT}, "
            f"got {zeta}")
    return shifted_solve(spec, complex(zeta), f, tol_rel=tol_rel,
                         strict=strict)


def project_continuous(phi0: ComplexField, f: ComplexField) -> ComplexField:
    """Projection onto the orthogonal complement of the ground state:
    f - <phi0, f> phi0 in the complex volume-weighted inner product."""
    coeff = inner_l2(phi0, f)
    return make_field(f.grid, f.values - coeff * phi0.values)


def h1_positivity_ratio(spec: HamiltonianSpec, f: ComplexField) -> float:
    """<f, H1 f> / ||f||^2; the shift rule keeps this above 1/2."""
    n2 = norm_l2(f) ** 2
    if n2 == 0.0:
        raise MagnlsError("positivity ratio of the zero field is undefined")
    return inner_l2(f, apply_h1(spec, f)).real / n2
