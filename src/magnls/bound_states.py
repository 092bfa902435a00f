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
|z|^2; the map commutes with the phase action z -> e^{i a} z exactly.
``solve_bound_state`` iterates the map at one z; ``BoundStateFamily``
evaluates the whole curve from a Chebyshev interpolant in s = |z|^2 built
from a few such solves, and is the frame of ``decompose``.  Callers that
want a few states and gate each one's own residual (the ``bound-state``
and ``bound-family`` pipelines, an evolution's bound-state start) call
``solve_bound_state`` directly.  The gauge-equivariance tests check the
family against direct solves at complex z.
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
_FIXED_POINT_TOL = 1e-12   # update size a fixed point accepts, times 1 + |z|
_MAX_SWEEPS = 200
_DECAY_MIN_SAMPLES = 16
_HEADROOM = 1.1            # a build spans |z| <= 1.1 times its first request
_FINEST = 32               # Lobatto intervals of the finest interpolant
_CHOP_TOL = 1e-12          # next Chebyshev coefficient, relative to the largest


@dataclass(frozen=True)
class BoundState:
    """Q[z] with its correction and energy.

    A fixed-point solve (``solve_bound_state``) reports its sweep count in
    ``iterations``.  A state evaluated from ``BoundStateFamily``'s
    interpolant ran no sweep at z, so its ``iterations`` is 0.  Either way
    ``residual`` is measured on the returned field itself."""

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


def _check_ceiling(r: float, ceiling: float) -> None:
    if r > ceiling:
        raise MagnlsError(
            f"|z| = {r:.4g} exceeds the contraction ceiling {ceiling:.4g}")


def _chebyshev(x: float, n: int) -> np.ndarray:
    """T_k(x) and T_k'(x) for k < n, as two rows, by the recurrence
    T_{k+1} = 2x T_k - T_{k-1} and its derivative."""
    rows = np.zeros((2, n))
    rows[:, :2] = [[1.0, x], [0.0, 1.0]]
    for k in range(1, n - 1):
        rows[:, k + 1] = 2.0 * x * rows[:, k] - rows[:, k - 1]
        rows[1, k + 1] += 2.0 * rows[0, k]
    return rows


def _nonlinearity(sign: int, values: np.ndarray) -> np.ndarray:
    return sign * (np.abs(values) ** 2) * values


def _state(spec: HamiltonianSpec, eig: EigenPair, z: complex,
           q_values: np.ndarray, e_prime: float, sign: int,
           iterations: int) -> BoundState:
    """The state z phi0 + q with energy e0 + e', and its residual."""
    g = spec.grid
    big_q = z * eig.phi0.values + q_values
    energy = eig.e0 + e_prime
    resid_values = (_apply_h_values(spec, big_q)
                    + _nonlinearity(sign, big_q) - energy * big_q)
    return BoundState(z=z, field=make_field(g, big_q),
                      correction=make_field(g, q_values),
                      e_prime=float(e_prime), energy=float(energy), sign=sign,
                      iterations=iterations,
                      residual=float(norm_l2(make_field(g, resid_values))))


def fixed_point_step(spec: HamiltonianSpec, eig: EigenPair, z: complex,
                     q0: ComplexField, e0_prime: float, sign: int, *,
                     x0: np.ndarray | None = None):
    """One application of the contraction map; returns (q1, e1_prime, w).

    w is the deflated solve's solution and q1 = P_c w.  w keeps the small
    phi0 component that a non-Hermitian H gives the solution, so it, not
    q1, is the initial guess ``x0`` that lets the next sweep's Krylov
    solve start where this one ended."""
    if sign not in (1, -1):
        raise MagnlsError(f"nonlinearity sign must be +1 or -1, got {sign}")
    zc = complex(z)
    _check_ceiling(abs(zc), default_z_max(eig))

    g = spec.grid
    phi = eig.phi0.values
    dv = g.volume_element
    candidate = zc * phi + q0.values
    g0 = _nonlinearity(sign, candidate)

    pairing = complex(np.vdot(phi, g0) * dv)
    e1_prime = (pairing * zc.conjugate()).real / abs(zc) ** 2 if zc else 0.0

    # right-hand side strictly in the range of P_c
    rhs = -g0 + e0_prime * q0.values
    rhs = rhs - complex(np.vdot(phi, rhs) * dv) * phi

    w = shifted_solve(spec, eig.e0, make_field(g, rhs), tol_rel=_SOLVER_TOL,
                      deflate=(phi, 1.0 + abs(eig.e0)), x0=x0).values
    q1 = make_field(g, w - complex(np.vdot(phi, w) * dv) * phi)

    h2 = norm_h2(q1)
    if abs(zc) > 0.0:
        if h2 > abs(zc) ** 2:
            raise ContractionSetViolation(
                f"||q||_H2 = {h2:.4g} left the invariant set "
                f"(|z|^2 = {abs(zc)**2:.4g})")
        if abs(e1_prime) > abs(zc):
            raise ContractionSetViolation(
                f"|e'| = {abs(e1_prime):.4g} left the invariant set (|z| = {abs(zc):.4g})")
    return q1, e1_prime, w


def solve_bound_state(spec: HamiltonianSpec, eig: EigenPair, z: complex,
                      sign: int = 1, *,
                      start: tuple[ComplexField, float] | None = None) -> BoundState:
    """Iterate the contraction map to its fixed point.

    ``start`` optionally warm-starts the iteration (e.g. from a
    neighbouring state of the family); the map is a contraction on the
    invariant set, so the fixed point reached is the same.  ``start``'s
    correction is the first sweep's initial guess too, and each later
    deflated solve starts from the previous sweep's solution (the dense
    backend's direct solve needs none).
    """
    g = spec.grid
    zc = complex(z)
    if abs(zc) == 0.0:
        return _state(spec, eig, 0j, zeros(g).values, 0.0, sign, 0)

    q, ep = (zeros(g), 0.0) if start is None else (start[0], float(start[1]))
    x0 = None if start is None else q.values.ravel()

    accept = _FIXED_POINT_TOL * (1.0 + abs(zc))
    target = 1e-2 * accept
    best_delta = np.inf
    stalled = 0
    iterations = 0
    for iterations in range(1, _MAX_SWEEPS + 1):
        q_new, ep_new, w = fixed_point_step(spec, eig, zc, q, ep, sign, x0=x0)
        x0 = w.ravel()
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
    return _state(spec, eig, zc, q.values, ep, sign, iterations)


class BoundStateFamily:
    """Bound states Q[z] = z (phi0 + p(|z|^2)) and E[z] = e0 + e'(|z|^2)
    from one Chebyshev interpolant.

    The map commutes with z -> e^{ia} z, so Q[z] = (z/r) Q[r] with r = |z|,
    and Q[r] = r phi0 + q(r) is real-analytic and odd in r: p(s) =
    q(sqrt s)/sqrt s and e'(s) are analytic in s = r^2, and p(0) = e'(0) = 0.
    The family keeps the Chebyshev coefficients of both on [0, S], which
    converge geometrically (Trefethen, Approximation Theory and
    Approximation Practice, SIAM 2013).  The first request r > 0 sets
    S = min((1.1 r)^2, z_max^2); a request beyond S rebuilds.

    A build solves p and e' (``solve_bound_state``) at the 5, 9, 17 or 33
    Chebyshev-Lobatto points of [0, S], each set containing the last, and
    stops at the first set whose next coefficient, extrapolated from its
    last two, is below 1e-12 of the largest, or at 33: the node count comes
    from the coefficients' decay (Aurentz and Trefethen, "Chopping a
    Chebyshev series", ACM TOMS 43, 2017).  s = 0 needs no solve.  Every
    other node starts from the nearest solved one, scaled by (r/r_near)^3
    in q and (r/r_near)^2 in e' (Allgower and Georg, Introduction to
    Numerical Continuation Methods, SIAM 2003); the first set is solved in
    increasing s, each node from the one below.  Then one direct solve at
    s = 3S/4, which is never a node, started from the interpolant there,
    must end within the fixed-point tolerance of it, or the build raises
    ``NonConvergenceError`` and the family keeps its last interpolant.

    ``solve`` and ``derivative_fields`` evaluate the interpolant: one product
    with the coefficients.  An evaluated state reports 0 ``iterations`` and
    the ``residual`` of the evaluated field.  r = 0 is the zero state and
    builds nothing.
    """

    def __init__(self, spec: HamiltonianSpec, eig: EigenPair, sign: int = 1):
        self.spec = spec
        self.eig = eig
        self.sign = sign
        self.z_max = default_z_max(eig)
        self._span = 0.0          # S: the interpolant covers s <= S
        self._coeffs = None       # of (p, e') on [0, S], one row per degree

    def _build(self, span: float) -> None:
        g = self.spec.grid
        x = -np.cos(np.pi * np.arange(_FINEST + 1) / _FINEST)
        s = 0.5 * span * (1.0 + x)
        # (p, e') at the node s[j], by index j; both vanish at s = 0
        nodes = {0: np.zeros(self.eig.phi0.values.size + 1, dtype=np.complex128)}
        for stride in (8, 4, 2, 1):
            for j in range(stride, _FINEST + 1, stride):
                if j not in nodes:
                    nodes[j] = self._node(s, j, nodes)
            values = np.array([nodes[j] for j in range(0, _FINEST + 1, stride)])
            coeffs = np.linalg.solve(
                [_chebyshev(xj, len(values))[0] for xj in x[::stride]], values)
            size = np.linalg.norm(coeffs, axis=1)
            if size[-1] * min(1.0, size[-1] / size[-2]) <= _CHOP_TOL * size.max():
                break

        r = np.sqrt(0.75 * span)    # x = 1/2, no Lobatto node of 2^k + 1 points
        row = _chebyshev(0.5, len(coeffs))[0] @ coeffs
        q, ep = r * row[:-1].reshape(g.sizes), row[-1].real
        direct = solve_bound_state(self.spec, self.eig, r, self.sign,
                                   start=(make_field(g, q), ep))
        miss = (norm_h2(make_field(g, direct.correction.values - q))
                + abs(direct.e_prime - ep))
        if miss > _FIXED_POINT_TOL * (1.0 + r):
            raise NonConvergenceError(
                f"bound-state interpolant on |z| <= {np.sqrt(span):.4g} "
                f"({len(coeffs)} nodes) misses a direct solve at r = {r:.4g} "
                f"by {miss:.3e}", residual=miss, iterations=len(coeffs))
        self._span, self._coeffs = span, coeffs

    def _node(self, s: np.ndarray, j: int, nodes: dict) -> np.ndarray:
        """(p, e') at the node s[j].  Its solve starts from the nearest
        solved node above s = 0, scaled to s[j], or from the cold start
        (0, 0) while there is none."""
        g = self.spec.grid
        r = np.sqrt(s[j])
        near = min((k for k in nodes if k), key=lambda k: abs(k - j), default=0)
        row = nodes[near] * (s[j] / s[near] if near else 0.0)
        state = solve_bound_state(
            self.spec, self.eig, r, self.sign,
            start=(make_field(g, r * row[:-1].reshape(g.sizes)), row[-1].real))
        return np.append(state.correction.values.ravel() / r, state.e_prime)

    def _evaluate(self, r: float):
        """p and e' at s = r^2 and their derivatives in s, rebuilding first
        if s lies beyond S.  r = 0 needs no build: p and e' vanish there,
        and the derivatives, read as 0, only ever enter times z = 0."""
        _check_ceiling(r, self.z_max)
        shape = self.spec.grid.sizes
        if r == 0.0:
            return np.zeros(shape), 0.0, np.zeros(shape), 0.0
        s = r * r
        if s > self._span:
            self._build(min((_HEADROOM * r) ** 2, self.z_max ** 2))
        p, dp = _chebyshev(2.0 * s / self._span - 1.0,
                           len(self._coeffs)) @ self._coeffs
        dp *= 2.0 / self._span          # d/ds = (2 / S) d/dx
        return (p[:-1].reshape(shape), float(p[-1].real),
                dp[:-1].reshape(shape), float(dp[-1].real))

    def solve(self, z: complex) -> BoundState:
        zc = complex(z)
        p, ep, _, _ = self._evaluate(abs(zc))
        return _state(self.spec, self.eig, zc, zc * p, ep, self.sign, 0)

    def energy(self, z: complex) -> float:
        return self.solve(z).energy

    def derivative_fields(self, z: complex) -> DerivativeFields:
        """Q[z] = z (phi0 + p(s)) and its derivatives in z = x + iy, with
        s = x^2 + y^2, from the interpolant and its derivative p'(s):

            D1Q = phi0 + p + 2x z p'(s),   D2Q = i (phi0 + p) + 2y z p'(s),

        and likewise dE/dz = (2x, 2y) e''(s).  On the real axis D1Q is
        d_rQ = phi0 + p + 2 s p'(s).  At z = 0 these are phi0 and i phi0.
        """
        zc = complex(z)
        g = self.spec.grid
        phi = self.eig.phi0.values
        p, ep, dp, dep = self._evaluate(abs(zc))
        base = phi + p
        tilt = zc * dp
        return DerivativeFields(
            z=zc, q=make_field(g, zc * phi + zc * p),   # as ``solve`` forms it
            d1q=make_field(g, base + 2.0 * zc.real * tilt),
            d2q=make_field(g, 1j * base + 2.0 * zc.imag * tilt),
            energy=self.eig.e0 + ep,
            de=(2.0 * zc.real * dep, 2.0 * zc.imag * dep))


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
    slope, _ = np.polyfit(rr, ly, 1)
    # r^2 of a line fit is the squared correlation; a flat window fits exactly
    r2 = np.corrcoef(rr, ly)[0, 1] ** 2 if np.ptp(ly) > 0 else 1.0
    return DecayFit(beta=float(-slope), r_squared=float(r2))
