"""Decomposition of a near-soliton state into Q[z] plus symplectically
orthogonal radiation, and its tracking along a trajectory.

The parameter z is fixed by the two real pairing conditions

    B_j(z) = < i (psi - Q[z]), D_j Q[z] > = 0,   j = 1, 2,

with the real pairing <f, g> = Re integral conj(f) g.  B is driven to zero
by a 2x2 Newton iteration whose Jacobian is minus the symplectic Gram matrix
G_jk = < D_j Q, i D_k Q >, the leading term of dB/dz; the rest is
O(|eta| |z|) and only slows the convergence to linear.  Since <f, i f> = 0
and <D_2 Q, i D_1 Q> = -<D_1 Q, i D_2 Q>, G = [[0, G_12], [-G_12, 0]], and
the step solving G dz = B is dz = (-B_2 + i B_1) / G_12.  Each iterate
evaluates the frame Q[z], D_1 Q, D_2 Q once, from the family's Chebyshev
interpolant in |z|^2 and its exact derivative: a product with the
interpolant's coefficients, and no fixed-point solve once the family has
been built over the frame's |z|.  Along a
trajectory the tracker warm-starts each frame from the previous one,
forms the gauge-adjusted parameter w(t) = z(t) exp(i int_0^t E[z] ds), and
reports the modulation residual zdot + i E z through centered differences
of w (the two agree identically; differencing the slow variable avoids the
O(dt^2) bias the fast phase would otherwise inject).  Scattering content is
probed by pulling eta back with the discrete linear group at matched step
size, so the pullback inverts the trajectory's own linear propagator
exactly rather than an incompatible discretization of it.
The bound-state family is the frame of every call: it carries the
operator, the ground state and the sign of the nonlinearity.
``stability_sweep`` is the stability experiment of ``stability-run``: it
perturbs Q[z] by a few amplitudes along one continuous-spectrum direction,
evolves the states as one stack and tracks each; ``stability_verdicts``
turns the tracked reports of such a sweep into the stability-run gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import pairwise

import numpy as np

from .analysis import (XNormAccumulator, at_most, loglog_slope, time_norm,
                       within)
from .bound_states import BoundStateFamily, DerivativeFields
from .errors import ConservationBreach, MagnlsError, NewtonDivergence
from .evolution import EvolveConfig, Trajectory, evolve, linear_flow
from .grid import ComplexField, inner_l2, inner_real, make_field, norm_l2
from .hamiltonian import HamiltonianSpec, check_grid, project_continuous
from .norms import DEFAULT_SIGMA, norm_h1
from .potentials import gaussian_bump

_BASIN_FRACTION = 0.3       # decompose accepts ||psi||_H1 <= this * z_max
_MAX_FRAME_SPACING = 0.1
_MIN_FRAMES = 5             # frames a tracked trajectory needs
_CHECKPOINT_FRACTIONS = (0.25, 0.5, 0.75, 1.0)   # of the window, for pullbacks
# stability-run gates, see stability_verdicts
MOD_RESID_SLOPE = (2.0, 0.4)  # log-log slope and tolerance: L1 ~ amplitude^2
TV_RATIO_CAP = 0.25         # second- over first-half total variation of w
GAP_RATIO_CAP = 0.5         # last over first scattering gap
ORTHO_REL_CAP = 1e-10       # pairing residual over ||eta||_H1


def check_frame_spacing(spacing: float) -> None:
    """Tracked frames must sit close enough for centred differences of z."""
    if spacing > _MAX_FRAME_SPACING + 1e-12:
        raise MagnlsError(
            f"snapshot_stride * dt must be <= {_MAX_FRAME_SPACING:g} for "
            f"modulation tracking, got {spacing:.3g}")


def check_frame_count(frames: int) -> None:
    """A tracked trajectory needs ``_MIN_FRAMES`` frames: centred differences
    of z and scattering gaps between its checkpoints."""
    if frames < _MIN_FRAMES:
        raise MagnlsError("trajectory too short to track "
                          f"(need >= {_MIN_FRAMES} frames)")


def check_amplitudes(amplitudes: tuple[float, ...]) -> None:
    """The amplitudes of a stability sweep are positive and pairwise
    distinct: the modulation-residual slope is a fit through them."""
    distinct = len(set(amplitudes)) == len(amplitudes)
    if not (distinct and all(a > 0 for a in amplitudes)):
        raise MagnlsError("amplitudes must be positive and pairwise "
                          f"distinct, got {tuple(amplitudes)}")


@dataclass(frozen=True)
class DecompositionRecord:
    z: complex
    eta: ComplexField
    ortho_resid: float          # max_j |B_j| at the accepted iterate
    newton_iters: int
    q: ComplexField             # Q[z] of the accepted frame
    energy: float               # E[z]


@dataclass
class StabilityReport:
    """Per-frame modulation data for one tracked run, on the trajectory's
    snapshot time base."""

    times: np.ndarray
    z_series: np.ndarray
    energy_series: np.ndarray
    gauge_adjusted: np.ndarray           # w = z exp(i int E)
    l1_mod_resid: float
    eta_h1: np.ndarray
    eta_weighted_h1: np.ndarray
    ortho_resid: np.ndarray
    eta_q_pairing: np.ndarray
    newton_iters: np.ndarray
    x_norm_eta: tuple[float, float, float]   # weighted L2H1, L3W1p, sup H1
    scattering_checkpoints: np.ndarray
    scattering_gaps: tuple[tuple[float, float, float], ...]  # (t1, t2, gap)
    eta_plus_estimate: ComplexField      # the last checkpoint's pullback
    wrap_around: float
    warnings: tuple[str, ...] = dc_field(default_factory=tuple)

    @property
    def tv_ratio(self) -> float:
        """Second-half over first-half total variation of w."""
        tv1, tv2 = gauge_adjusted_variation(self)
        return tv2 / max(tv1, 1e-300)

    @property
    def padded_gaps(self) -> list[float]:
        """The first three scattering gaps, NaN where there are fewer."""
        gaps = [d for _, _, d in self.scattering_gaps][:3]
        return gaps + [float("nan")] * (3 - len(gaps))

    @property
    def gap_ratio(self) -> float:
        """Last over first scattering gap; 0 with fewer than two gaps."""
        gaps = [d for _, _, d in self.scattering_gaps]
        return gaps[-1] / max(gaps[0], 1e-300) if len(gaps) >= 2 else 0.0

    @property
    def ortho_rel(self) -> float:
        """Worst pairing residual over the frames, relative to ||eta||_H1."""
        return float(np.max(self.ortho_resid
                            / np.maximum(self.eta_h1, 1e-300)))

    @property
    def in_window(self) -> bool:
        """The window ends before periodic images can return: at most the
        wrap-around estimate."""
        return bool(self.times[-1] <= self.wrap_around)


def _pairings(psi_values: np.ndarray,
              frame: DerivativeFields) -> tuple[np.ndarray, ComplexField]:
    """B(z) and the radiation eta = psi - Q[z], from the frame at z."""
    g = frame.q.grid
    eta = make_field(g, psi_values - frame.q.values)
    i_eta = make_field(g, 1j * eta.values)
    return np.array([inner_real(i_eta, frame.d1q),
                     inner_real(i_eta, frame.d2q)]), eta


def _gram_entry(frame: DerivativeFields) -> float:
    """G_12 = < D_1 Q, i D_2 Q >, the one free entry of the Gram matrix."""
    return inner_real(frame.d1q, make_field(frame.q.grid,
                                            1j * frame.d2q.values))


def decompose(psi: ComplexField, family: BoundStateFamily, *,
              z_guess: complex | None = None,
              max_newton: int = 50) -> DecompositionRecord:
    """Solve the two orthogonality conditions for z and return (z, eta).

    The cold start is the coefficient <phi0, psi> on the family's ground
    state.  The state must sit inside the decomposition basin: ||psi||_H1
    at most 0.3 of the amplitude ceiling.  Each Newton iterate makes one
    ``family.derivative_fields`` call, an evaluation of the family's
    interpolant that solves nothing unless |z| lies beyond the span it was
    built for; B and the step
    dz = (-B_2 + i B_1) / G_12 of the antisymmetric Gram matrix
    G = [[0, G_12], [-G_12, 0]] both come from that frame, and the iterate
    with the smallest |B| is returned.
    """
    check_grid(family.spec, psi)
    cap = _BASIN_FRACTION * family.z_max
    psi_h1 = norm_h1(psi)
    if psi_h1 > cap:
        raise MagnlsError(
            f"state too large for the decomposition basin: ||psi||_H1 = "
            f"{psi_h1:.4g} > {cap:.4g}")

    z = (complex(inner_l2(family.eig.phi0, psi)) if z_guess is None
         else complex(z_guess))
    psi_l2 = norm_l2(psi)
    tol_primary = 1e-12 * (1.0 + psi_l2)

    best = (np.inf, None, None)       # (max_j |B_j|, frame, eta)
    iters = 0
    converged = False
    for iters in range(1, max_newton + 1):
        frame = family.derivative_fields(z)
        b, eta = _pairings(psi.values, frame)
        bmax = float(np.max(np.abs(b)))
        if bmax < best[0]:
            best = (bmax, frame, eta)
        if bmax <= tol_primary:
            converged = True
            # polish toward the radiation-relative tolerance while it helps
            target = 0.3e-10 * max(norm_h1(eta), 1e-300)
            if bmax <= target:
                break
        # Jacobian dB/dz = -G + O(|eta| |z|)
        g12 = _gram_entry(frame)
        step_z = complex(-b[1] / g12, b[0] / g12) if g12 != 0.0 else 0j
        if g12 == 0.0:
            failure = f"singular Jacobian at z = {z}"
        elif not np.isfinite(step_z):
            failure = f"non-finite Newton step at z = {z}"
        elif abs(z + step_z) > family.z_max:
            failure = (f"Newton iterate |z| = {abs(z + step_z):.4g} escaped "
                       "the family ceiling")
        else:
            failure = None
        if failure is not None:
            if converged:
                break
            raise NewtonDivergence(failure)
        z = z + step_z
        if converged and abs(step_z) < 1e-16 * max(1.0, abs(z)):
            break
    if not converged:
        raise NewtonDivergence(
            f"pairing conditions stalled at |B| = {best[0]:.3e} after "
            f"{iters} iterations (target {tol_primary:.1e})")

    bmax, frame, eta = best
    return DecompositionRecord(z=frame.z, eta=eta, ortho_resid=bmax,
                               newton_iters=iters, q=frame.q,
                               energy=frame.energy)


def symplectic_gram(family: BoundStateFamily, z: complex) -> np.ndarray:
    """Gram matrix G_jk = < D_j Q, i D_k Q > = [[0, G_12], [-G_12, 0]];
    approaches [[0,-1],[1,0]] as z -> 0.  Minus G is the Newton Jacobian
    of ``decompose``."""
    g12 = _gram_entry(family.derivative_fields(z))
    return np.array([[0.0, g12], [-g12, 0.0]])


def scattering_gap(spec: HamiltonianSpec, eta1: ComplexField, t1: float,
                   eta2: ComplexField, t2: float, *,
                   dt: float = 1e-3) -> float:
    """H1 distance between the linear pullbacks of eta(t) at two times; a
    Cauchy increment of the scattering limit.  A pullback stands in for
    exp(+i t H) eta(t): it is ``linear_flow`` over -t, the discrete
    Crank-Nicolson propagator whose forward steps made eta(t)."""
    return _h1_gap(linear_flow(spec, eta1, -t1, dt=dt),
                   linear_flow(spec, eta2, -t2, dt=dt))


def _h1_gap(p1: ComplexField, p2: ComplexField) -> float:
    """||p2 - p1||_H1, the gap between two pullbacks."""
    return float(norm_h1(make_field(p1.grid, p2.values - p1.values)))


def track(traj: Trajectory, family: BoundStateFamily, *,
          sigma: float = DEFAULT_SIGMA) -> StabilityReport:
    """Decompose every snapshot of a trajectory and assemble the modulation
    diagnostics.  At each checkpoint, eta is pulled back as soon as it is
    decomposed."""
    spec = family.spec
    times = np.asarray(traj.times)
    n = times.size
    check_frame_count(n)
    check_frame_spacing(float(times[1] - times[0]))

    acc = XNormAccumulator(sigma)
    t_final = float(times[-1])
    checkpoints = sorted({int(np.argmin(np.abs(times - f * t_final)))
                          for f in _CHECKPOINT_FRACTIONS})
    rows = []                   # the per-frame scalars of the report
    pullbacks = []              # eta pulled back at each checkpoint
    z_guess: complex | None = None
    for j, psi in enumerate(traj.snapshots):
        rec = decompose(psi, family, z_guess=z_guess)
        z_guess = rec.z
        w_h1, _, h1 = acc.add(float(times[j]), rec.eta)
        rows.append((rec.z, rec.energy, h1, w_h1, rec.ortho_resid,
                     inner_real(rec.eta, rec.q), rec.newton_iters))
        if j in checkpoints:
            pullbacks.append(linear_flow(spec, rec.eta, -float(times[j]),
                                         dt=traj.dt))
    zs, energies, eta_h1, eta_w_h1, ortho, pairing, nit = map(np.array,
                                                             zip(*rows))

    cum_e = np.concatenate(([0.0], np.cumsum(
        0.5 * (energies[1:] + energies[:-1]) * np.diff(times))))
    w = zs * np.exp(1j * cum_e)

    interior = slice(1, n - 1)
    wdot = (w[2:] - w[:-2]) / (times[2:] - times[:-2])
    mod_resid = wdot * np.exp(-1j * cum_e[interior])
    t_int = times[interior]
    l1 = float(time_norm(t_int, np.abs(mod_resid), 1.0))

    gaps = tuple((float(times[j1]), float(times[j2]), _h1_gap(p1, p2))
                 for (j1, p1), (j2, p2) in pairwise(zip(checkpoints, pullbacks)))

    return StabilityReport(
        times=times, z_series=zs, energy_series=energies, gauge_adjusted=w,
        l1_mod_resid=l1, eta_h1=eta_h1, eta_weighted_h1=eta_w_h1,
        ortho_resid=ortho, eta_q_pairing=pairing, newton_iters=nit,
        x_norm_eta=acc.components(),
        scattering_checkpoints=times[checkpoints],
        scattering_gaps=gaps, eta_plus_estimate=pullbacks[-1],
        wrap_around=traj.wrap_around,
        warnings=traj.warnings)


def stability_sweep(family: BoundStateFamily, z: complex,
                    amplitudes: tuple[float, ...], width: float,
                    config: EvolveConfig, *,
                    sigma: float = DEFAULT_SIGMA) -> list:
    """Track Q[z] + a b for each amplitude a, the stability experiment.

    The direction b is the Gaussian bump of ``width`` with its phi0
    component projected out, scaled to ||b||_H1 = 1.  The states evolve as
    one stack under the family's sign (``evolve``) and each is tracked
    (``track``) in amplitude order.  Returns each amplitude's
    ``(Trajectory, StabilityReport)`` in order up to the first state whose
    drift breached, then that state's ``ConservationBreach``; the
    amplitudes after it are not tracked.
    """
    check_amplitudes(amplitudes)
    check_frame_count(config.frames)
    g = family.spec.grid
    base = family.solve(z).field
    bump = project_continuous(family.eig.phi0, gaussian_bump(g, 1.0, width))
    bump = make_field(g, bump.values / norm_h1(bump))
    trajs = evolve(family.spec, [make_field(g, base.values + a * bump.values)
                                 for a in amplitudes], config, family.sign)
    runs = []
    for traj in trajs:
        if isinstance(traj, ConservationBreach):
            return runs + [traj]
        runs.append((traj, track(traj, family, sigma=sigma)))
    return runs


def gauge_adjusted_variation(report: StabilityReport) -> tuple[float, float]:
    """Total variation of w over the first and second halves of the window."""
    w = report.gauge_adjusted
    t = report.times
    mid = 0.5 * (t[0] + t[-1])
    dv = np.abs(np.diff(w))
    centers = 0.5 * (t[1:] + t[:-1])
    first = float(np.sum(dv[centers <= mid]))
    second = float(np.sum(dv[centers > mid]))
    return first, second


def stability_verdicts(amplitudes: list[float],
                       reports: list[StabilityReport]) -> tuple:
    """The stability-run gates of a sweep, one tracked report per amplitude.

    Returns ``(gates, summary, warnings)``.  ``gates`` maps each gate name
    to its value, threshold text and verdict.  ``summary`` holds what
    ``stability.json`` records: the log-log slope of the L1 modulation
    residual against the amplitude (NaN with fewer than two amplitudes, and
    then no mod_resid_slope gate), the worst relative pairing residual, and
    whether some window ran past its wrap-around estimate.  A
    scattering_cauchy failure in such a sweep is waived, and ``warnings``
    says so: periodic images then re-enter the well and the gaps stop
    measuring scattering.
    """
    gates = {}
    slope = float("nan")
    if len(reports) >= 2:
        slope = loglog_slope(amplitudes,
                             [rep.l1_mod_resid for rep in reports])
        gates["mod_resid_slope"] = within(slope, *MOD_RESID_SLOPE)
    tv = [rep.tv_ratio for rep in reports]
    gates["adjusted_tv_halving"] = (max(tv), f"worst ratio <= {TV_RATIO_CAP:g}",
                                    all(r <= TV_RATIO_CAP for r in tv))
    gaps = [rep.gap_ratio for rep in reports]
    gaps_ok = all(r <= GAP_RATIO_CAP for r in gaps)
    wrap_violated = not all(rep.in_window for rep in reports)
    waived = wrap_violated and not gaps_ok
    gates["scattering_cauchy"] = (
        max(gaps), f"<= {GAP_RATIO_CAP:g} (wrap-violated, waived)" if waived
        else f"worst gap ratio <= {GAP_RATIO_CAP:g}", waived or gaps_ok)
    ortho = max(rep.ortho_rel for rep in reports)
    gates["orthogonality_rel"] = at_most(ortho, ORTHO_REL_CAP)
    summary = {"mod_resid_slope": slope, "worst_ortho_rel": ortho,
               "wrap_violated": wrap_violated}
    warnings = (("scattering gap growth inside a wrap-compromised window; "
                 "downgraded to a warning",) if waived else ())
    return gates, summary, warnings
