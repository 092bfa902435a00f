"""Small-amplitude nonlinear bound states bifurcating from the ground state.

The family Q[z] = z*phi0 + q[z] solves H Q + s|Q|^2 Q = E Q with
(phi0, q) = 0, built by the contraction map

    g0 = s |z phi0 + q0|^2 (z phi0 + q0)
    e1' = Re( (phi0, g0) conj(z) ) / |z|^2
    q1 = (H - e0)^{-1} [ -P_c g0 + e0' q0 ]   restricted to the range of P_c,

iterated from (q, e') = (0, 0) inside the invariant set { ||q||_H2 <= |z|^2,
|e'| <= |z| }.  The solve at the ground-state energy is performed with the
eigenvalue deflated away, so the restricted operator is uniformly invertible.
The converged correction scales like |z|^3 and the eigenvalue shift like
|z|^2; the map commutes with the phase action z -> e^{i a} z exactly, so
``BoundStateFamily`` solves real amplitudes only and rotates the result.
The gauge-equivariance tests check that rotation against direct solves at
complex z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractionSetViolation,
    InsufficientDecayWindow,
    MagnlsError,
    NonConvergenceError,
)
from .grid import ComplexField, make_field, norm_l2, zeros
from .hamiltonian import HamiltonianSpec, _apply_h_values, shifted_solve
from .norms import norm_h2, norm_lp
from .potentials import DECAY_FLOOR
from .spectrum import EigenPair

_SOLVER_TOL = 1e-12        # relative residual of each deflated solve
_MAX_SWEEPS = 200
_DECAY_MIN_SAMPLES = 16
_CACHE_BYTES = 64 * 2**20  # corrections a family keeps across amplitudes


@dataclass(frozen=True)
class BoundState:
    z: complex
    field: ComplexField          # Q = z phi0 + q
    correction: ComplexField     # q, orthogonal to phi0
    e_prime: float
    energy: float                # E = e0 + e'
    sign: int
    iterations: int
    residual: float              # || H Q + s|Q|^2 Q - E Q ||_2


@dataclass(frozen=True)
class DerivativeFields:
    """Q[z] and its derivatives in the two real directions, plus the energy
    E[z] and its gradient."""

    z: complex
    step: float
    q: ComplexField
    d1q: ComplexField
    d2q: ComplexField
    energy: float
    de: tuple[float, float]


@dataclass(frozen=True)
class DecayFit:
    beta: float
    r_squared: float


def default_z_max(eig: EigenPair) -> float:
    """Default amplitude ceiling 0.2 / ||phi0||_4^2."""
    l4 = norm_lp(eig.phi0, 4.0)
    return 0.2 / l4**2


def _nonlinearity(sign: int, values: np.ndarray) -> np.ndarray:
    return sign * (np.abs(values) ** 2) * values


def fixed_point_step(spec: HamiltonianSpec, eig: EigenPair, z: complex,
                     q0: ComplexField, e0_prime: float, sign: int, *,
                     x0: np.ndarray | None = None):
    """One application of the contraction map; returns (q1, e1_prime)."""
    if sign not in (1, -1):
        raise MagnlsError(f"nonlinearity sign must be +1 or -1, got {sign}")
    zc = complex(z)
    ceiling = default_z_max(eig)
    if abs(zc) > ceiling:
        raise MagnlsError(
            f"|z| = {abs(zc):.4g} exceeds the contraction ceiling {ceiling:.4g}")

    g = spec.grid
    phi = eig.phi0.values
    dv = g.volume_element
    candidate = zc * phi + q0.values
    g0 = _nonlinearity(sign, candidate)

    if abs(zc) == 0.0:
        e1_prime = 0.0
    else:
        pairing = complex(np.vdot(phi, g0) * dv)
        e1_prime = (pairing * zc.conjugate()).real / abs(zc) ** 2

    # right-hand side strictly in the range of P_c
    rhs = -g0 + e0_prime * q0.values
    rhs = rhs - complex(np.vdot(phi, rhs) * dv) * phi

    deflation_weight = 1.0 + abs(eig.e0)
    sol = shifted_solve(spec, eig.e0, make_field(g, rhs),
                        tol_rel=_SOLVER_TOL, deflate=(phi, deflation_weight),
                        x0=x0)
    q1_values = sol.values - complex(np.vdot(phi, sol.values) * dv) * phi
    q1 = make_field(g, q1_values)

    h2 = norm_h2(q1)
    if abs(zc) > 0.0:
        if h2 > abs(zc) ** 2:
            raise ContractionSetViolation(
                f"||q||_H2 = {h2:.4g} left the invariant set "
                f"(|z|^2 = {abs(zc)**2:.4g})")
        if abs(e1_prime) > abs(zc):
            raise ContractionSetViolation(
                f"|e'| = {abs(e1_prime):.4g} left the invariant set (|z| = {abs(zc):.4g})")
    return q1, e1_prime


def solve_bound_state(spec: HamiltonianSpec, eig: EigenPair, z: complex,
                      sign: int = 1, *,
                      start: tuple[ComplexField, float] | None = None) -> BoundState:
    """Iterate the contraction map to its fixed point.

    ``start`` optionally warm-starts the iteration (e.g. from a prediction
    along the family curve); the map is a contraction on the invariant set,
    so the fixed point reached is the same.  Each deflated solve starts
    from the current correction, so ``start``'s correction is the first
    sweep's initial guess too (the dense backend's direct solve needs none).
    """
    g = spec.grid
    zc = complex(z)
    if abs(zc) == 0.0:
        zero = make_field(g, np.zeros(g.sizes, dtype=np.complex128))
        return BoundState(z=0.0, field=zero, correction=zero, e_prime=0.0,
                          energy=eig.e0, sign=sign, iterations=0, residual=0.0)

    if start is not None:
        q, ep = start[0], float(start[1])
    else:
        q = make_field(g, np.zeros(g.sizes, dtype=np.complex128))
        ep = 0.0

    accept = 1e-12 * (1.0 + abs(zc))
    target = 1e-14 * (1.0 + abs(zc))
    best_delta = np.inf
    stalled = 0
    iterations = 0
    for iterations in range(1, _MAX_SWEEPS + 1):
        q_new, ep_new = fixed_point_step(
            spec, eig, zc, q, ep, sign,
            x0=None if iterations == 1 and start is None else q.values.ravel())
        delta = norm_h2(make_field(g, q_new.values - q.values)) + abs(ep_new - ep)
        q, ep = q_new, ep_new
        if delta <= target:
            break
        if delta >= best_delta:
            stalled += 1
            if stalled >= 2:
                break
        else:
            stalled = 0
            best_delta = delta
    final_delta = min(delta, best_delta)
    if final_delta > accept:
        raise NonConvergenceError(
            f"fixed point stalled at update size {final_delta:.3e} "
            f"(target {accept:.1e}) for z = {zc}",
            residual=final_delta, iterations=iterations)

    q_values = q.values
    big_q = zc * eig.phi0.values + q_values
    energy = eig.e0 + ep
    resid_values = (_apply_h_values(spec, big_q)
                    + _nonlinearity(sign, big_q) - energy * big_q)
    residual = norm_l2(make_field(g, resid_values))
    return BoundState(z=zc, field=make_field(g, big_q),
                      correction=q, e_prime=float(ep), energy=float(energy),
                      sign=sign, iterations=iterations, residual=float(residual))


@dataclass(frozen=True)
class _CurvePoint:
    """A solved state on the real amplitude curve, without its field
    r phi0 + q, which is rebuilt on demand."""

    correction: ComplexField
    e_prime: float
    energy: float
    iterations: int
    residual: float


class BoundStateFamily:
    """Bound states Q[z] solved on the real amplitude curve and rotated.

    The contraction map commutes with z -> e^{ia} z, so Q[z] = (z/|z|) Q[|z|]
    and only real r = |z| >= 0 is ever solved.  Solved corrections q[r] are
    kept in one dict keyed by r.  Each new solve starts from the curve's
    linear prediction at r (predictor-corrector continuation; Allgower and
    Georg, Introduction to Numerical Continuation Methods, SIAM 2003,
    ch. 2-3): a is the kept r nearest r within 0.5 r, b the kept r within
    that window nearest a with |b - a| >= |r - a|, the smaller on a tie
    either time, and the start is (q, e') at a plus t = (r - a) / (b - a)
    times their change to b.  |t| <= 1, so solver noise in a close pair is
    never amplified; with no such b the start is a's state.  That cuts the
    sweep count while landing on the same fixed point.  Once the kept
    corrections pass ``_CACHE_BYTES``, the r farthest from the last request
    is dropped first (the smaller on a tie).  Lookup, insertion and eviction
    are deterministic.  r = 0 is the zero state and is not kept.
    """

    def __init__(self, spec: HamiltonianSpec, eig: EigenPair, sign: int = 1):
        self.spec = spec
        self.eig = eig
        self.sign = sign
        self.z_max = default_z_max(eig)
        self._curve: dict[float, _CurvePoint] = {}
        self.stored_bytes = 0

    def _curve_point(self, r: float) -> _CurvePoint:
        curve = self._curve
        if r in curve:
            return curve[r]
        # a start from a much larger r would lie outside r's invariant set
        near = [k for k in curve if abs(k - r) <= 0.5 * r]
        start = None
        if near:
            a = min(near, key=lambda k: (abs(k - r), k))
            p = curve[a]
            start = (p.correction, p.e_prime)
            # the secant through a and a kept b no nearer a than r, so |t| <= 1
            far = [k for k in near if abs(k - a) >= abs(r - a)]
            if far:
                b = min(far, key=lambda k: (abs(k - a), k))
                t = (r - a) / (b - a)
                q = p.correction.values
                start = (make_field(self.spec.grid,
                                    q + t * (curve[b].correction.values - q)),
                         p.e_prime + t * (curve[b].e_prime - p.e_prime))
        state = solve_bound_state(self.spec, self.eig, r, self.sign,
                                  start=start)
        point = curve[r] = _CurvePoint(state.correction, state.e_prime,
                                       state.energy, state.iterations,
                                       state.residual)
        self.stored_bytes += point.correction.values.nbytes
        while self.stored_bytes > _CACHE_BYTES and len(curve) > 1:
            lo, hi = min(curve), max(curve)
            drop = lo if r - lo >= hi - r else hi
            self.stored_bytes -= curve.pop(drop).correction.values.nbytes
        return point

    def solve(self, z: complex) -> BoundState:
        zc = complex(z)
        r = abs(zc)
        if r == 0.0:
            return solve_bound_state(self.spec, self.eig, zc, self.sign)
        point = self._curve_point(r)
        g = self.spec.grid
        q = (zc / r) * point.correction.values
        return BoundState(z=zc, field=make_field(g, zc * self.eig.phi0.values + q),
                          correction=make_field(g, q), e_prime=point.e_prime,
                          energy=point.energy, sign=self.sign,
                          iterations=point.iterations, residual=point.residual)

    def energy(self, z: complex) -> float:
        return self.solve(z).energy

    def derivative_fields(self, z: complex) -> DerivativeFields:
        """Q[z] and its tangents from the real curve.  With z = r e^{i theta},

            D1Q = e^{i theta} (cos theta d_rQ - i sin theta Q[r] / r)
            D2Q = e^{i theta} (sin theta d_rQ + i cos theta Q[r] / r),

        and likewise dE/dz = (cos theta, sin theta) dE/dr, with d_r by central
        differences at r +- h.  At z = 0 these are the limits phi0 and i phi0.
        """
        zc = complex(z)
        r = abs(zc)
        h = 1e-4 * max(r, 0.01)
        g = self.spec.grid
        phi = self.eig.phi0.values
        if r == 0.0:
            return DerivativeFields(
                z=zc, step=h, q=zeros(g),
                d1q=make_field(g, phi.copy()), d2q=make_field(g, 1j * phi),
                energy=self.eig.e0, de=(0.0, 0.0))
        plus, minus = self.solve(r + h), self.solve(r - h)
        rot = zc / r
        dq = rot * (phi + (plus.correction.values - minus.correction.values)
                    / (2.0 * h))
        de = (plus.energy - minus.energy) / (2.0 * h)
        base = self.solve(zc)
        q = base.field.values
        d1 = make_field(g, rot.real * dq - 1j * rot.imag * q / r)
        d2 = make_field(g, rot.imag * dq + 1j * rot.real * q / r)
        return DerivativeFields(z=zc, step=h, q=base.field, d1q=d1, d2q=d2,
                                energy=base.energy,
                                de=(float(rot.real * de), float(rot.imag * de)))


def decay_fit(field: ComplexField) -> DecayFit:
    """Exponential decay rate of |Q| over a radial window.

    Fits log|Q| = a - beta r by least squares over samples with
    r in [0.25, 0.45] * (L_min / 2) and |Q| above 1e-13.
    """
    g = field.grid
    half = 0.5 * min(g.box_lengths)
    lo, hi = 0.25 * half, 0.45 * half
    r = g.radius
    mag = np.abs(field.values)
    mask = (r >= lo) & (r <= hi) & (mag > DECAY_FLOOR)
    n = int(np.count_nonzero(mask))
    if n < _DECAY_MIN_SAMPLES:
        raise InsufficientDecayWindow(
            f"only {n} usable samples in radial window [{lo:.3g}, {hi:.3g}]")
    peak = float(mag[mask].max())
    if peak < 1e-11:
        raise InsufficientDecayWindow(
            f"window amplitudes (max {peak:.3g}) sit too close to the floor")
    rr = r[mask]
    ly = np.log(mag[mask])
    slope, intercept = np.polyfit(rr, ly, 1)
    fitted = slope * rr + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(beta=float(-slope), r_squared=float(r2))
