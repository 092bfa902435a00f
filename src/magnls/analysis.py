"""Quantitative spectral and dispersive diagnostics.

Everything here produces numbers with pass/fail gates attached rather than
proofs: uniform weighted resolvent bounds probed on a frequency grid, the
equivalence of the shifted-operator graph norm with the flat second-order
Sobolev norm on random trial fields, and discrete Strichartz quotients for
the linear group and its Duhamel integral.  All three scans march as
stacks, one row per sample in the stack layout of ``grid``, and each row
is the one its sample alone gives, bit for bit: the Lanczos processes of
the resolvent scan's lambda points advance in lockstep (``krylov.arnoldi``)
with each point's solves at its own shift, the norm-equivalence trials
are evaluated in chunks of rows under one byte budget, and the Strichartz
sources' two kinds march in one time loop, sampled on one schedule.  Every
time norm of a sampled series,
here and in ``modulation``, is one ``time_norm``: the Strichartz values and
references, the three parts of the radiation norm the stability tracker
keeps (``XNormAccumulator``) and its L1 modulation residual.

Each gate threshold is a constant here, and each gate is formed once, by a
verdict function returning ``(gates, summary, warnings)`` in the shape of
``modulation.stability_verdicts``: ``resolvent_verdicts`` for the scans at
eps and eps / 10, the ``verdicts`` of ``NormEquivalenceReport`` and
``StrichartzReport``, and ``FamilySweep.verdicts`` for a bound-state family
sweep.  ``loglog_slope`` fits the three log-log slope gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import numpy.ma  # noqa: F401 -- else np.median imports it on first call
import numpy.random

from .bound_states import (BoundState, BoundStateFamily, DecayFit, decay_fit,
                           solve_bound_state)
from .errors import ConfigError, InsufficientDecayWindow, MagnlsError
from .evolution import whole_steps
from .grid import (ComplexField, GridSpec, make_field, norm_l2, norm_l2_rows,
                   stack_ifft)
from .hamiltonian import (MIN_IMAG_SHIFT, CNHistory, HamiltonianSpec,
                          apply_h1_values, cn_power, h_matrix,
                          project_continuous, project_continuous_values,
                          resolvent_solve, shifted_solve)
from .krylov import arnoldi
from .norms import (DEFAULT_SIGMA, bracket_weight, check_sigma, field_parts,
                    first_order_parts, norm_h2, norm_lp_rows,
                    norm_w2p_sums)
from .spectrum import MAX_RESIDUAL, EigenPair

# the resolvent-scan run repeats its scan at eps / _FINE_EPS_FACTOR; the
# largest scaled norm drifts between the two by at most _EPS_DRIFT_CAP,
# relative
_FINE_EPS_FACTOR = 10.0
_EPS_DRIFT_CAP = 0.25
# default frequency grid: lambda in [0, _LAM_MAX], gaps of at least _GAP_MIN
_LAM_MAX = 6.0
_LAMBDA_COUNT = 16
_GAP_MIN = 6e-2
_BAND_FRACTION = 0.25      # trial fields keep |k| <= this fraction of k_max
# norm-equivalence fields are evaluated in chunks of rows of at most this
# many bytes per complex array (at least one row): 32 rows on the 256-point
# line, 8 on a 32 x 32 grid, 1 on 32^3.  On the spectral-1d benchmark all
# 65 fields in one chunk (266 KB arrays) raised the peak RSS by about
# 0.5 MiB against chunks of 32 rows
_TRIAL_STACK_BYTES = 128 * 2**10
# norm-equivalence gates, for each p: r_max / r_min <= NORM_SPREAD_CAP and
# r_min >= NORM_RATIO_FLOOR
_NORM_P_LIST = (2.0, 18.0 / 5.0)
NORM_SPREAD_CAP = 100.0
NORM_RATIO_FLOOR = 1e-3
# flatness gates: the largest scaled resolvent norm and the largest
# Strichartz quotient stay within these factors of their medians
RESOLVENT_FLATNESS_CAP = 10.0
STRICHARTZ_SPREAD_CAP = 10.0
# bound-family gates: ||q||_H2 ~ |z|^3 and |E'| ~ |z|^2 (log-log slope and
# tolerance), and the r^2 floor of the decay fits
_SLOPE_Q_H2 = (3.0, 0.3)
_SLOPE_E_PRIME = (2.0, 0.3)
_DECAY_R2_FLOOR = 0.98


def at_most(value: float, cap: float) -> tuple[float, str, bool]:
    """Gate value, threshold text and verdict for value <= cap."""
    return value, f"<= {cap:g}", value <= cap


def at_least(value: float, floor: float) -> tuple[float, str, bool]:
    """Gate value, threshold text and verdict for value >= floor."""
    return value, f">= {floor:g}", value >= floor


def within(value: float, centre: float, tol: float) -> tuple[float, str, bool]:
    """Gate value, threshold text and verdict for |value - centre| <= tol."""
    return value, f"{centre:g} +- {tol:g}", abs(value - centre) <= tol


def max_over_median(largest: float, median: float,
                    cap: float) -> tuple[float, str, bool]:
    """Gate value, threshold text and verdict for largest / median <= cap,
    judged as largest <= cap * median."""
    return (largest / max(median, 1e-300), f"max/median <= {cap:g}",
            largest <= cap * median)


def all_passed(gates: dict) -> bool:
    """Whether every gate of a name -> (value, threshold, verdict) map
    passed."""
    return all(verdict for *_, verdict in gates.values())


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x, with y floored at 1e-300
    so that an exact zero stays finite."""
    return float(np.polyfit(np.log(x), np.log(np.maximum(y, 1e-300)), 1)[0])


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(float(x)).limit_denominator(10**6)


def is_admissible(q, p) -> bool:
    """Exact test of 2/q + 3/p = 3/2 with q >= 2 and 2 <= p < 6.

    Floats are rationalized first (so 18/5 entered as 3.6 is recognized);
    the infinite-q endpoint pairs with p = 2.
    """
    if isinstance(q, float) and math.isinf(q):
        return _as_fraction(p) == 2
    fq, fp = _as_fraction(q), _as_fraction(p)
    if fq < 2 or fp < 2 or fp >= 6:
        return False
    return Fraction(2, 1) / fq + Fraction(3, 1) / fp == Fraction(3, 2)


def time_norm(times, samples, q: float):
    """L^q norm in time of a sampled series: the trapezoid rule along the
    first axis of ``samples``, or the supremum for q = inf.  One sample
    has finite-q norm 0, and no samples have norm 0 for every q."""
    samples = np.asarray(samples, dtype=float)
    if math.isinf(q):
        return samples.max(axis=0, initial=0.0)
    return np.trapezoid(samples**q, times, axis=0) ** (1.0 / q)


class XNormAccumulator:
    """The three-part radiation norm of a series of fields.

    Components: the time-L2 of the decaying-weight first-order norm, the
    time-L3 of the flat W^{1,18/5} norm, and the supremum of the H1 norm,
    each a ``time_norm`` of the samples kept so far.  Feed samples in
    increasing time order.
    """

    def __init__(self, sigma: float = DEFAULT_SIGMA):
        check_sigma(sigma)
        self.sigma = float(sigma)
        self._times: list[float] = []
        self._samples: list[tuple[float, float, float]] = []

    def add(self, t: float, f: ComplexField) -> tuple[float, float, float]:
        """Sample f at time t; returns the three norms it sampled, all from
        one gradient of f."""
        if self._times and t <= self._times[-1]:
            raise MagnlsError(
                f"time samples must increase: {self._times[-1]} -> {t}")
        parts = field_parts(f)
        values = (parts.weighted_h1(self.sigma)[0], parts.w1p(18.0 / 5.0)[0],
                  parts.w1p(2.0)[0])
        self._times.append(t)
        self._samples.append(values)
        return values

    def components(self) -> tuple[float, float, float]:
        series = np.reshape(self._samples, (-1, 3))
        return tuple(float(time_norm(self._times, series[:, k], q))
                     for k, q in enumerate((2.0, 3.0, math.inf)))


# ---------------------------------------------------------------------------
# weighted resolvent scan

def _dense_levels(spec: HamiltonianSpec) -> np.ndarray:
    """All eigenvalues of the Hermitian part of ``h_matrix``, in
    increasing order: on the dense backend those of its eigenbasis."""
    if spec.dense_basis is not None:
        return spec.dense_basis.lam
    mat = h_matrix(spec)
    return np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))


def scan_offsets(eps: float) -> tuple[float, float]:
    """The imaginary offsets of a resolvent-scan run: eps and the finer
    eps / _FINE_EPS_FACTOR, which must still clear resolvent_solve's
    |Im zeta| floor."""
    fine = eps / _FINE_EPS_FACTOR
    if fine < MIN_IMAG_SHIFT:
        raise MagnlsError(
            f"resolvent_eps must be >= "
            f"{_FINE_EPS_FACTOR * MIN_IMAG_SHIFT:g} so the scan at "
            f"eps/{_FINE_EPS_FACTOR:g} keeps |Im zeta| >= {MIN_IMAG_SHIFT:g}, "
            f"got {eps:g}")
    return eps, fine


def default_lambda_grid(spec: HamiltonianSpec) -> np.ndarray:
    """Frequency grid that dodges the discrete levels of a finite box.

    On a periodic box the continuous spectrum breaks into isolated levels
    with spacing of order lam * (2 pi / L); probing the weighted resolvent
    at a small imaginary offset right on top of one produces a spike that
    says nothing about the infinite-volume operator.  On a grid of at most
    2,048 points, in any dimension, the full level ladder is cheap to
    compute directly: the levels are the eigenvalues of the Hermitian part
    of ``hamiltonian.h_matrix`` (those of H itself when A = 0 and V is
    real; ``eigvalsh`` takes about 0.6 s at 1,024 points).
    The default grid places each lambda^2 at the midpoint of a spectral gap,
    using only gaps wider than 0.06 so every sample keeps a safe distance
    from the nearest level (the narrow splittings of even/odd doublets are
    skipped over automatically).  On larger grids, or when fewer than four
    gaps qualify, a uniform grid is returned instead.
    """
    fallback = np.linspace(0.0, _LAM_MAX, _LAMBDA_COUNT)
    if spec.grid.total_points > 2048:
        return fallback
    levels = _dense_levels(spec)
    wide = np.diff(levels) >= _GAP_MIN
    mids = 0.5 * (levels[:-1] + levels[1:])[wide]
    mids = mids[(mids > 0.0) & (mids <= _LAM_MAX * _LAM_MAX)]
    if mids.size < 4:
        return fallback
    lams = np.sqrt(mids)
    if lams.size > _LAMBDA_COUNT:
        # the index step exceeds 1, so the rounded indices are distinct
        lams = lams[np.round(
            np.linspace(0, lams.size - 1, _LAMBDA_COUNT)).astype(int)]
    return lams


@dataclass(frozen=True)
class ResolventPoint:
    lam: float
    opnorm: float        # || w (H - lam^2 - i eps)^{-1} P_c w ||
    scaled: float        # sqrt(1 + lam^2) * opnorm
    power_iters: int     # Lanczos steps, each one application of M* M
    converged: bool      # the estimate settled within power_iters steps


@dataclass(frozen=True)
class ResolventScan:
    points: tuple[ResolventPoint, ...]
    sigma: float
    eps: float
    max_scaled: float
    median_scaled: float


def resolvent_bound_scan(spec: HamiltonianSpec, eig: EigenPair | None = None,
                         *, sigma: float = DEFAULT_SIGMA,
                         lambda_grid: np.ndarray | None = None,
                         eps: float = 1e-2, power_iters: int = 20,
                         seed: int = 7) -> ResolventScan:
    """Frequency-scaled weighted resolvent norms over a lambda grid.

    For each lambda the operator norm of
    M = w (H - lambda^2 - i eps)^{-1} P_c w, with w the decaying spatial
    weight, is the square root of the largest Ritz value of Lanczos on the
    normal operator M* M (``krylov.arnoldi``, from a random start).  Each
    step applies M* M once, by two non-strict resolvent solves; the
    iteration stops when the estimate changes by at most 1e-4 relative, or
    after ``power_iters`` steps, and ``ResolventPoint.power_iters`` counts
    the steps taken.  The processes of all the lambda points advance in
    lockstep, as one stack of starts (drawn in grid order, one row each):
    a step projects the rows together, runs each row's two solves at its
    own shift, orthogonalizes all the rows by one stacked Gram-Schmidt and
    takes the Ritz values of every live row from one stacked ``eigvals``;
    a point retires once its estimate settles, so each point is the one
    its own process gives, bit for bit.  The
    recorded value carries the dispersive factor sqrt(1 + lambda^2), which
    is what should stay flat across the grid; a resonance or an eigenvalue
    leaking through the projection shows up as a spike against the median.
    Pass ``eig=None`` to skip the projection (free or bound-state-less H).
    When ``lambda_grid`` is omitted, :func:`default_lambda_grid` threads
    the frequencies between the discrete levels of the finite box, where
    the scan is a faithful stand-in for the whole-space operator; an
    explicit grid is honoured as given, spikes and all.
    """
    g = spec.grid
    w = bracket_weight(g, sigma)
    rng = np.random.default_rng(seed)
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(spec)
    lams = np.asarray(lambda_grid, dtype=float)
    zetas = lams * lams + 1j * eps
    draws = rng.standard_normal((lams.size, 2) + g.sizes)
    starts = (draws[:, 0] + 1j * draws[:, 1]).reshape(lams.size, -1)
    live = np.ones(lams.size, dtype=bool)

    def project(x: np.ndarray) -> np.ndarray:
        return x if eig is None else project_continuous_values(eig.phi0, x)

    def apply_normal(stack: np.ndarray) -> np.ndarray:
        """M* M on the rows of the live points, M = w (H - zeta)^-1 P_c w
        at each point's own zeta."""
        x = project(w * stack.reshape((-1,) + g.sizes))
        for i, k in enumerate(np.flatnonzero(live)):
            u = resolvent_solve(spec, zetas[k], make_field(g, x[i]),
                                strict=False)
            u = resolvent_solve(spec, np.conj(zetas[k]),
                                make_field(g, w * w * u.values), strict=False)
            x[i] = u.values
        return (w * project(x)).reshape(stack.shape)

    est = [0.0] * lams.size
    used = [0] * lams.size
    converged = [False] * lams.size
    for m, rows, _, hess in arnoldi(apply_normal, starts, power_iters, live):
        ritz = np.linalg.eigvals(hess[rows, :m, :m]).real.max(axis=1)
        for k, top in zip(rows, ritz):
            new_est = math.sqrt(max(top, 0.0))
            converged[k] = (est[k] > 0.0
                            and abs(new_est - est[k]) <= 1e-4 * est[k])
            est[k], used[k] = new_est, m
            if converged[k]:
                live[k] = False
    points = []
    for lam, opnorm, steps, settled in zip(lams, est, used, converged):
        scale = math.sqrt(1.0 + lam * lam)
        points.append(ResolventPoint(lam=float(lam), opnorm=opnorm,
                                     scaled=scale * opnorm, power_iters=steps,
                                     converged=settled))
    scaled = np.array([p.scaled for p in points])
    return ResolventScan(points=tuple(points), sigma=sigma, eps=float(eps),
                         max_scaled=float(scaled.max()),
                         median_scaled=float(np.median(scaled)))


def resolvent_verdicts(main: ResolventScan, fine: ResolventScan) -> tuple:
    """The resolvent-scan gates of the scans at eps and at the finer
    eps / _FINE_EPS_FACTOR.

    Returns ``(gates, summary, warnings)`` in the shape of
    ``modulation.stability_verdicts``: resolvent_flatness bounds the largest
    scaled norm at eps by a multiple of their median, and
    resolvent_eps_stability the relative drift of that largest norm to the
    finer eps.  ``summary`` is what ``resolvent.json`` records.
    """
    drift = abs(fine.max_scaled - main.max_scaled) / max(main.max_scaled,
                                                         1e-300)
    gates = {
        "resolvent_flatness": max_over_median(
            main.max_scaled, main.median_scaled, RESOLVENT_FLATNESS_CAP),
        "resolvent_eps_stability": at_most(drift, _EPS_DRIFT_CAP)}
    summary = {"sigma": main.sigma, "max_scaled": main.max_scaled,
               "median_scaled": main.median_scaled,
               "max_scaled_fine_eps": fine.max_scaled, "eps_drift": drift}
    return gates, summary, ()


# ---------------------------------------------------------------------------
# graph-norm equivalence

def _norm_gates(spread: float, r_min: float) -> dict:
    return {"ratio_spread": at_most(spread, NORM_SPREAD_CAP),
            "ratio_floor": at_least(r_min, NORM_RATIO_FLOOR)}


@dataclass(frozen=True)
class NormEquivalenceRow:
    p: float
    r_min: float
    r_max: float
    spread: float

    @property
    def passed(self) -> bool:
        return all_passed(_norm_gates(self.spread, self.r_min))


@dataclass(frozen=True)
class NormEquivalenceReport:
    rows: tuple[NormEquivalenceRow, ...]
    trials: int

    def verdicts(self) -> tuple:
        """``(gates, summary, warnings)``: ratio_spread and ratio_floor over
        the worst row, the gates each row's ``passed`` applies to itself;
        the run records no summary."""
        return _norm_gates(max(r.spread for r in self.rows),
                           min(r.r_min for r in self.rows)), {}, ()

    @property
    def ok(self) -> bool:
        return all_passed(self.verdicts()[0])


def _band_limited_trials(g: GridSpec, rng: np.random.Generator,
                         count: int) -> np.ndarray:
    """A stack of ``count`` random band-limited fields of unit L2 norm:
    one normal draw of shape (count, 2) + sizes, each field's real then
    imaginary coefficients in turn, cut to the band by one mask and taken
    to the grid by one inverse transform."""
    draws = rng.standard_normal((count, 2) + g.sizes)
    coeffs = draws[:, 0] + 1j * draws[:, 1]
    mask = np.all([np.abs(k) <= _BAND_FRACTION * np.abs(k).max()
                   for k in g.k_mesh], axis=0)
    coeffs[:, ~mask] = 0.0
    fields = stack_ifft(g, coeffs, overwrite_x=True)
    scale = np.maximum(norm_l2_rows(g, fields), 1e-300)
    return fields / scale.reshape((-1,) + (1,) * g.dim)


def _floor_probe(spec: HamiltonianSpec, values: np.ndarray) -> np.ndarray:
    """A few inverse iterations of H + K from a unit trial field, so that
    a near-kernel direction of H + K, if one exists, is in the trial
    set."""
    g = spec.grid
    probe = make_field(g, values)
    for _ in range(4):
        sol = shifted_solve(spec, -spec.k_shift, probe, tol_rel=1e-8,
                            strict=False)
        nrm = norm_l2(sol)
        if not np.isfinite(nrm) or nrm == 0.0:
            break
        probe = make_field(g, sol.values / nrm)
    return probe.values


def norm_equivalence_check(spec: HamiltonianSpec, *, trials: int = 64,
                           seed: int = 11) -> NormEquivalenceReport:
    """Ratios r = ||(H + K) u||_p / (||u||_p + ||grad u||_p + ||lap u||_p)
    over random band-limited trials.

    With the default K, which keeps H + K >= 1 for any A
    (``hamiltonian.default_k_shift``), the two norms bound each other with
    moderate constants; the gates are r_max/r_min <= 100 and
    r_min >= 1e-3, for p = 2 and p = 18/5.  The floor probe runs a few
    inverse iterations so a near-kernel direction of H + K, if one exists,
    is in the trial set; with K = 0 and a threshold eigenvalue this is what
    breaks the lower bound.

    The trials, then the probe, are one stack of fields, drawn in that
    order and evaluated in chunks of rows of at most
    ``_TRIAL_STACK_BYTES`` per complex array: per chunk, one normal draw,
    one inverse transform, one stacked application of H + K and one
    transform for the second-order sums of every p
    (``norms.norm_w2p_sums``).  Each ratio is the one its field alone
    gives, bit for bit.
    """
    g = spec.grid
    rng = np.random.default_rng(seed)
    chunk = max(1, _TRIAL_STACK_BYTES // (16 * g.total_points))
    ratios = {p: [] for p in _NORM_P_LIST}
    for lo in range(0, trials + 1, chunk):
        hi = min(lo + chunk, trials + 1)
        stack = _band_limited_trials(g, rng, hi - lo)
        if hi == trials + 1:   # the last row is the probe's start
            stack[-1] = _floor_probe(spec, stack[-1])
        hv = apply_h1_values(spec, stack)
        for p, denoms in zip(_NORM_P_LIST,
                             norm_w2p_sums(g, stack, _NORM_P_LIST)):
            ratios[p] += [n / max(d, 1e-300)
                          for n, d in zip(norm_lp_rows(g, hv, p), denoms)]
    rows = []
    for p in _NORM_P_LIST:
        r_min = float(min(ratios[p]))
        r_max = float(max(ratios[p]))
        spread = r_max / max(r_min, 1e-300)
        rows.append(NormEquivalenceRow(p=float(p), r_min=r_min, r_max=r_max,
                                       spread=spread))
    return NormEquivalenceReport(rows=tuple(rows), trials=trials + 1)


# ---------------------------------------------------------------------------
# Strichartz quotients

@dataclass(frozen=True)
class StrichartzRow:
    mode: str            # "homogeneous" or "duhamel"
    source: int
    q: float
    p: float
    value: float         # space-time norm of the evolved field
    reference: float     # the norm it is measured against
    ratio: float


@dataclass(frozen=True)
class StrichartzReport:
    rows: tuple[StrichartzRow, ...]
    max_ratio: float
    median_ratio: float

    def verdicts(self) -> tuple:
        """``(gates, summary, warnings)``: strichartz_spread bounds the
        largest quotient by a multiple of their median; ``summary`` is what
        ``strichartz.json`` records."""
        gates = {"strichartz_spread": max_over_median(
            self.max_ratio, self.median_ratio, STRICHARTZ_SPREAD_CAP)}
        return gates, {"max_ratio": self.max_ratio,
                       "median_ratio": self.median_ratio}, ()


def _localized_source(spec: HamiltonianSpec, eig: EigenPair,
                      rng: np.random.Generator) -> ComplexField:
    g = spec.grid
    f = make_field(g, _band_limited_trials(g, rng, 1)[0])
    envelope = np.exp(-(g.radius / (min(g.box_lengths) / 8.0)) ** 2)
    f = make_field(g, f.values * envelope)
    f = project_continuous(eig.phi0, f)
    return make_field(g, f.values / max(norm_l2(f), 1e-300))


def strichartz_ratio(spec: HamiltonianSpec, eig: EigenPair, *,
                     pairs: tuple[tuple[float, float], ...] = (
                         (math.inf, 2.0), (3.0, 18.0 / 5.0), (8.0 / 3.0, 4.0)),
                     n_sources: int = 4, n_duhamel: int = 2,
                     t_final: float = 1.0, dt: float = 2e-3, stride: int = 10,
                     sigma: float = DEFAULT_SIGMA,
                     seed: int = 23) -> StrichartzReport:
    """Discrete space-time norm quotients for the linear group.

    Homogeneous rows divide the L^q_t W^{1,p}_x norm of exp(-itH) f by
    ||f||_2.  Duhamel rows evolve the trapezoid-accumulated integral of
    exp(-i(t-s)H) P_c F(s) and divide by the smaller of two source norms:
    the growing-weight L^2-in-time first-order norm and the L^1-in-time H1
    norm (a dual-admissible choice).  Well-behaved dispersion keeps all the
    quotients on a common scale; the gate flags a spread above 10x median.

    Both kinds march in one loop over the time steps, each as one stack of
    its sources, one row per source: the Duhamel stack takes one CN step
    per time step, the homogeneous stack one CN power of the steps since
    the last sample.  The samples sit at t = 0, at every ``stride`` steps
    and at the last step.  The sources are drawn homogeneous first; rows
    come in that order, with pairs in ``pairs`` order.
    """
    for q, p in pairs:
        if not is_admissible(q, p):
            raise ConfigError(f"exponent pair ({q}, {p}) is not admissible")
    if min(n_sources, n_duhamel) < 0 or n_sources + n_duhamel == 0:
        raise ConfigError(f"need n_sources, n_duhamel >= 0 and at least one "
                          f"source, got {n_sources}, {n_duhamel}")
    g = spec.grid
    rng = np.random.default_rng(seed)
    n_steps = whole_steps(t_final, dt)
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    sources = [_localized_source(spec, eig, rng)
               for _ in range(n_sources + n_duhamel)]
    # either stack may be empty, shape (0,) + grid.sizes
    stack = np.stack([f.values for f in sources])
    hom, fx = stack[:n_sources], stack[n_sources:]
    t_mid, t_wid = 0.5 * t_final, t_final / 6.0

    def amp(t: float) -> float:
        return math.exp(-((t - t_mid) / t_wid) ** 2)

    # per sample: its time and, per pair, the row norms of both stacks
    times, norms = [], []

    def sample(t: float, hom: np.ndarray, cur: np.ndarray) -> None:
        """Record both stacks' norms at time t; the first-order parts of
        every field come from one transform of the two stacks."""
        parts = first_order_parts(g, np.concatenate((hom, cur)))
        times.append(t)
        norms.append([parts.w1p(p) for _, p in pairs])

    cur = np.zeros_like(fx)
    sample(0.0, hom, cur)
    last = 0
    history = [CNHistory() for _ in range(n_duhamel)]   # Duhamel rows
    for step_i in range(1, n_steps + 1):
        t0 = (step_i - 1) * dt
        t1 = step_i * dt
        half = cur + 0.5 * dt * amp(t0) * fx
        cur = cn_power(spec, half, dt, 1, history) + 0.5 * dt * amp(t1) * fx
        if step_i % stride == 0 or step_i == n_steps:
            hom = cn_power(spec, hom, dt, step_i - last)
            last = step_i
            sample(t1, hom, cur)

    # the Duhamel source is amp(t) fx, so its two reference norms are
    # those of fx times time norms of amp; the growing weight is <x>^sigma
    amps = [amp(t) for t in times]
    duh = first_order_parts(g, fx)
    duh_refs = np.minimum(
        np.array(duh.weighted_h1(-sigma)) * time_norm(times, amps, 2.0),
        np.array(duh.w1p(2.0)) * time_norm(times, amps, 1.0))
    heads = [("homogeneous", k, norm_l2(f))
             for k, f in enumerate(sources[:n_sources])]
    heads += [("duhamel", k, ref) for k, ref in enumerate(duh_refs.tolist())]
    # per pair, the time norm of each row
    series = np.array(norms)
    values = [time_norm(times, series[:, k], q)
              for k, (q, _) in enumerate(pairs)]
    rows = []
    for i, (mode, s_idx, reference) in enumerate(heads):
        for (q, p), row_values in zip(pairs, values):
            val = float(row_values[i])
            rows.append(StrichartzRow(mode=mode, source=s_idx, q=q, p=p,
                                      value=val, reference=reference,
                                      ratio=val / max(reference, 1e-300)))
    ratios = np.array([r.ratio for r in rows])
    return StrichartzReport(rows=tuple(rows), max_ratio=float(ratios.max()),
                            median_ratio=float(np.median(ratios)))


# ---------------------------------------------------------------------------
# bound-state family sweep

@dataclass(frozen=True)
class FamilySweep:
    """Bound states at a sweep of real amplitudes, with ||q||_H2 of each
    correction and the decay fit of each state: NaN beta and r^2 where the
    radial window was too small, with a note saying so."""

    states: tuple[BoundState, ...]
    q_h2: tuple[float, ...]
    decay: tuple[DecayFit, ...]
    notes: tuple[str, ...]

    def verdicts(self) -> tuple:
        """``(gates, summary, warnings)`` of the bound-family run.

        The gates: the log-log slopes of ||q||_H2 and |E'| against |z|, the
        worst fixed-point residual and, over the decay fits that ran, the
        smallest rate and the worst r^2.  ``summary`` is what
        ``family.json`` records; the warnings are the notes.
        """
        z = [abs(s.z) for s in self.states]
        fits = [f for f in self.decay if math.isfinite(f.beta)]
        slope_q = loglog_slope(z, self.q_h2)
        slope_e = loglog_slope(z, [abs(s.e_prime) for s in self.states])
        worst_resid = max(s.residual for s in self.states)
        gates = {"slope_q_h2": within(slope_q, *_SLOPE_Q_H2),
                 "slope_e_prime": within(slope_e, *_SLOPE_E_PRIME),
                 "family_residuals": at_most(worst_resid, MAX_RESIDUAL)}
        if fits:
            beta = min(f.beta for f in fits)
            gates["decay_beta_positive"] = (beta, "> 0", beta > 0.0)
            gates["decay_fit_quality"] = at_least(
                min(f.r_squared for f in fits), _DECAY_R2_FLOOR)
        summary = {"slope_q_h2": slope_q, "slope_e_prime": slope_e,
                   "max_residual": worst_resid,
                   "decay": [{"beta": f.beta, "r_squared": f.r_squared}
                             for f in fits]}
        return gates, summary, self.notes


def family_sweep(family: BoundStateFamily, z_sweep) -> FamilySweep:
    """Solve the family's fixed point at each amplitude of ``z_sweep``
    (``solve_bound_state``, so each state's residual is its own solve's)
    and fit the decay of each state."""
    states, q_h2, decay, notes = [], [], [], []
    for zv in z_sweep:
        state = solve_bound_state(family.spec, family.eig, zv, family.sign)
        try:
            fit = decay_fit(state.field)
        except InsufficientDecayWindow as exc:
            fit = DecayFit(beta=float("nan"), r_squared=float("nan"))
            notes.append(f"decay fit skipped at z={zv}: {exc}")
        states.append(state)
        q_h2.append(norm_h2(state.correction))
        decay.append(fit)
    return FamilySweep(tuple(states), tuple(q_h2), tuple(decay), tuple(notes))
